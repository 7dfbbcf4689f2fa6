package cliutil

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes path through a temp file in the same directory
// and a rename, so path always holds a complete file: a writer that
// fails or is killed midway leaves whatever an earlier writer completed
// there, never a truncated prefix of its own. Per-cell campaign
// artifacts need exactly that — a stolen or re-run cell re-writes a file
// a strict reader (flowtrace.Read) may already depend on. A failed write
// removes its temp file; only a kill can strand one.
func WriteFileAtomic(path string, write func(io.Writer) error) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close() // already failing; a second Close is harmless
			os.Remove(f.Name())
		}
	}()
	w := bufio.NewWriter(f)
	if err = write(w); err != nil {
		return err
	}
	if err = w.Flush(); err != nil {
		return err
	}
	if err = f.Chmod(0o644); err != nil { // CreateTemp makes 0600
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// WriteTo runs write against the file at path, created or truncated,
// or against stdout when path is "-"; the file's Close error is
// reported.
func WriteTo(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
