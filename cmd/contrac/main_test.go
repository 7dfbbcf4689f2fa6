package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRejectsHostForP4(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, "fattree:4:1", "minimize(path.util)", "h0_0_0", "")
	if err == nil {
		t.Fatalf("-p4 h0_0_0 succeeded:\n%s", out.String())
	}
	if msg := err.Error(); !strings.Contains(msg, "host") || !strings.Contains(msg, "h0_0_0") {
		t.Fatalf("error %q should say that h0_0_0 is a host", msg)
	}
	if strings.Contains(out.String(), "#include") {
		t.Fatalf("a program was printed for a host:\n%s", out.String())
	}
}

func TestRunWritesOneProgramPerSwitch(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "p4")
	var out bytes.Buffer
	if err := run(&out, "fattree:4:1", "minimize(path.util)", "e0_0", dir); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote 20 P4 programs") {
		t.Fatalf("output:\n%s", out.String())
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 20 {
		t.Fatalf("%d files in %s, want one per switch and no temp files", len(files), dir)
	}
	printed, err := os.ReadFile(filepath.Join(dir, "e0_0.p4"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), string(printed)) || !bytes.Contains(printed, []byte("V1Switch(")) {
		t.Fatal("e0_0.p4 is not the program -p4 e0_0 printed")
	}
	info, err := os.Stat(filepath.Join(dir, "e0_0.p4"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o644 {
		t.Fatalf("e0_0.p4 mode %v, want 0644", info.Mode().Perm())
	}
}
