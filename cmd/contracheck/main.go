// Command contracheck validates the repo's line-oriented artifacts
// with the code that reads and writes them: it holds no format rule of
// its own, only the table from kind to the owning package's checker.
//
// Usage:
//
//	contracheck trace   cell.jsonl ...       decision traces  (-trace-out, -trace-dir)
//	contracheck metrics cell.jsonl ...       link telemetry   (-metrics-out, -metrics-dir)
//	contracheck flow    cell.flow.jsonl ...  flow traces      (-record, -record-dir)
//
// Prints "ok   <file>: <summary>" or "FAIL <file>: <first violation>"
// per file; exits 1 if any file failed, 2 on a usage error.
package main

import (
	"fmt"
	"io"
	"os"

	"contra/internal/flowtrace"
	"contra/internal/metrics"
	"contra/internal/trace"
)

var kinds = map[string]func(io.Reader) (summary string, err error){
	"trace":   trace.Check,
	"metrics": metrics.Check,
	"flow":    flowtrace.Check,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 2 || kinds[args[0]] == nil {
		fmt.Fprintln(stderr, "usage: contracheck trace|metrics|flow <file> [...]")
		return 2
	}
	status := 0
	for _, path := range args[1:] {
		var summary string
		f, err := os.Open(path)
		if err == nil {
			summary, err = kinds[args[0]](f)
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(stdout, "FAIL %s: %v\n", path, err)
			status = 1
			continue
		}
		fmt.Fprintf(stdout, "ok   %s: %s\n", path, summary)
	}
	return status
}
