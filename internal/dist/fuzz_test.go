package dist

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// testdata/fleet4.records.jsonl and fleet4.ck are the coordinator
// stream and one worker's checkpoint of the 4-cell fabric run whose
// journal is internal/fabric's fixture, written by the last release.

// FuzzReadRecords feeds the record reader arbitrary bytes. Nothing may
// panic, here or in the Collector that a merge feeds the records to;
// and since a stream must be readable from whatever prefix a crash left
// on disk, every prefix of an accepted stream is accepted and yields the
// same records in the same order, short by at most the line the cut
// fell in. (It can hold one the stream does not: `{}x` unterminated is a
// torn line, cut to `{}` it is a record — the fuzzer's first finding,
// and a fault of the property as first written, not of the reader.)
func FuzzReadRecords(f *testing.F) {
	fix, err := os.ReadFile("testdata/fleet4.records.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(fix, []byte("\n"))
	f.Add(fix, 0)
	f.Add(fix, len(fix)/2)                                                      // torn mid-line
	f.Add(fix[:len(fix)-1], len(fix)-40)                                        // no final newline
	f.Add(bytes.Join([][]byte{lines[2], lines[0], lines[0], lines[1]}, nil), 1) // swapped, repeated
	f.Add(bytes.Replace(fix, []byte(`"index":1`), []byte(`"index":2`), 1), 7)   // two cells claim an index
	f.Add(bytes.Replace(fix, []byte(`"scenario":{`), []byte(`"scenario":null,"x":{`), 1), 9)
	f.Add(bytes.Replace(fix, []byte(`"index":3`), []byte(`"index":-9223372036854775808`), 1), 3)
	f.Add([]byte("null\n{}\n\n{\"key\":"), 6)
	f.Add([]byte(`{"00":""}0`), 9) // the finding above

	f.Fuzz(func(t *testing.T, data []byte, cut int) {
		recs, err := ReadRecords(bytes.NewReader(data))
		if err != nil {
			return
		}
		var c Collector
		for i := range recs {
			if c.Emit(&recs[i]) != nil {
				break
			}
		}
		_, _ = c.Report()

		if cut < 0 || cut > len(data) {
			return
		}
		prefix, err := ReadRecords(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatalf("prefix [:%d] of an accepted stream rejected: %v", cut, err)
		}
		whole, err := ReadRecords(bytes.NewReader(data[:bytes.LastIndexByte(data[:cut], '\n')+1]))
		if err != nil {
			t.Fatalf("complete lines of an accepted stream rejected: %v", err)
		}
		if n := len(prefix); n < len(whole) || n > len(whole)+1 {
			t.Fatalf("prefix [:%d] holds %d records; its complete lines hold %d", cut, n, len(whole))
		}
		for i := range prefix[:min(len(prefix), len(recs))] {
			if prefix[i].Key != recs[i].Key || prefix[i].Index != recs[i].Index {
				t.Fatalf("prefix record %d is %s@%d, the stream's is %s@%d", i, prefix[i].Key, prefix[i].Index, recs[i].Key, recs[i].Index)
			}
		}
	})
}

// FuzzOpenCheckpoint opens a checkpoint file of arbitrary bytes. No
// content is an error — what is not a key line is debris to skip — and
// opening is idempotent: the first open seals the file, a second finds
// the same keys, the same debris and leaves the bytes alone; a key
// marked after any of it is there on the next open.
func FuzzOpenCheckpoint(f *testing.F) {
	fix, err := os.ReadFile("testdata/fleet4.ck")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fix)
	f.Add(fix[:len(fix)-9])                                      // torn tail
	f.Add(append(append([]byte{}, fix[:20]...), fix...))         // fragment fused with the next append
	f.Add(bytes.ReplaceAll(fix, []byte("\n"), []byte("\r\n\n"))) // blank lines, CRLF
	f.Add([]byte("no newline at all"))
	f.Add([]byte("#0123456789abcdef\nx#0123456789abcdeF\n x#0123456789abcdef \n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ck")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func() (keys, garbled int, sealed []byte) {
			ck, err := OpenCheckpoint(path)
			if err != nil {
				t.Fatalf("OpenCheckpoint: %v", err)
			}
			defer ck.Close()
			sealed, err = os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return ck.Len(), ck.Garbled(), sealed
		}
		k1, g1, s1 := open()
		k2, g2, s2 := open()
		if k1 != k2 || g1 != g2 || !bytes.Equal(s1, s2) {
			t.Fatalf("reopen changed the checkpoint: %d keys %d garbled → %d keys %d garbled", k1, g1, k2, g2)
		}
		if !bytes.HasPrefix(data, s1) || bytes.Contains(data[len(s1):], []byte("\n")) {
			t.Fatalf("seal kept %d of %d bytes: not the complete lines", len(s1), len(data))
		}

		const fresh = "fuzz/fresh#00000000deadbeef"
		ck, err := OpenCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		was := ck.Done(fresh)
		if err := ck.Mark(fresh); err != nil {
			t.Fatal(err)
		}
		ck.Close()
		if ck, err = OpenCheckpoint(path); err != nil {
			t.Fatal(err)
		}
		defer ck.Close()
		if want := k1 + 1; !ck.Done(fresh) || (!was && ck.Len() != want) || ck.Garbled() != g1 {
			t.Fatalf("after Mark and reopen: done=%v len=%d garbled=%d, want done, %d keys, %d garbled", ck.Done(fresh), ck.Len(), ck.Garbled(), want, g1)
		}
	})
}
