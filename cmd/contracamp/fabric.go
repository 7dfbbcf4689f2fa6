package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"contra/internal/cliutil"
	"contra/internal/dist"
	"contra/internal/fabric"
)

// fabricDefaultTTL is the -lease-ttl default (see fabric.DefaultLeaseTTL).
const fabricDefaultTTL = fabric.DefaultLeaseTTL

// runServe is the coordinator side of the distributed fabric: expand
// the spec, serve leases over HTTP, stream deduplicated results to
// -stream, optionally spawn a local worker fleet, and when the last
// cell lands, merge the stream into the usual report outputs.
func runServe(o options) error {
	if o.stream == "" {
		return fmt.Errorf("-serve streams results; add -stream (the coordinator's output file)")
	}
	if o.shard != "" {
		return fmt.Errorf("-serve owns the full expansion; -shard applies to standalone streamed runs")
	}
	if o.checkpoint != "" {
		return fmt.Errorf("-serve resumes from the stream itself; drop -checkpoint (workers keep their own in -worker-dir)")
	}
	spec, err := loadSpec(o)
	if err != nil {
		return err
	}

	// Coordinator restart: every key already durable in the stream is
	// a done cell; workers re-delivering them get "duplicate".
	var alreadyDone map[string]bool
	if o.resume {
		if alreadyDone, err = dist.StreamKeys(o.stream); err != nil {
			return err
		}
	}
	sink, err := dist.CreateJSONL(o.stream, o.resume)
	if err != nil {
		return err
	}
	var journal *fabric.Journal
	if o.journal != "" {
		if journal, err = fabric.CreateJournal(o.journal); err != nil {
			sink.Close()
			return err
		}
	}
	closeAll := func() {
		sink.Close()
		if journal != nil {
			journal.Close()
		}
	}
	started, completed, tick := progressHooks(o, spec.Size())
	coord, err := fabric.New(spec, sink, alreadyDone, fabric.Options{
		LeaseTTL:   o.leaseTTL,
		StealAfter: o.stealAfter,
		Journal:    journal,
		Started:    started,
		Progress:   completed,
		Beat:       tick,
	})
	if err != nil {
		closeAll()
		return err
	}

	ln, err := net.Listen("tcp", o.serve)
	if err != nil {
		closeAll()
		return err
	}
	url := "http://" + ln.Addr().String()
	if o.urlFile != "" {
		if err := os.WriteFile(o.urlFile, []byte(url+"\n"), 0o644); err != nil {
			closeAll()
			return err
		}
	}
	if !o.quiet {
		fmt.Fprintf(os.Stderr, "campaign %q: %d cells (%d already done); coordinator at %s\n",
			spec.Name, spec.Size(), len(alreadyDone), url)
	}
	srv := &http.Server{Handler: coord.Handler()}
	serveErr := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			serveErr <- err
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fleetErr := make(chan error, 1)
	if o.workers > 0 {
		go func() { fleetErr <- runFleet(ctx, o, url) }()
	}

	select {
	case <-coord.Done():
	case err := <-serveErr:
		closeAll()
		return err
	case err := <-fleetErr:
		// The whole local fleet died (respawn budget exhausted) with
		// cells still outstanding; without external workers the
		// campaign can never finish.
		closeAll()
		if err == nil {
			err = fmt.Errorf("local worker fleet exited with the campaign unfinished")
		}
		return err
	}
	// Campaign complete: let in-flight requests (straggler duplicate
	// deliveries) drain, then stop serving.
	sdCtx, sdCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer sdCancel()
	srv.Shutdown(sdCtx)
	cancel()
	if err := sink.Close(); err != nil {
		return err
	}
	st := coord.Status()
	if !o.quiet {
		fmt.Fprintf(os.Stderr, "campaign %q complete: %d cells, %d failed, %d expired lease(s), %d stolen, %d duplicate result(s)\n",
			spec.Name, st.Total, st.Failed, st.ExpiredLeases, st.StolenLeases, st.DuplicateResults)
	}
	if journal != nil {
		if err := journal.Close(); err != nil {
			// Observability must never fail the campaign it observed.
			fmt.Fprintf(os.Stderr, "warning: coordinator journal: %v\n", err)
		} else if err := writePostmortemFiles(o.journal, o.quiet); err != nil {
			fmt.Fprintf(os.Stderr, "warning: post-mortem: %v\n", err)
		}
	}
	report, err := dist.Merge([]string{o.stream})
	if err != nil {
		return err
	}
	return render(report, spec.Schemes, o)
}

// runFleet spawns o.workers local worker subprocesses (this same
// binary in -worker mode), each with its own durability dir under
// <stream>.fleet/, and respawns any that die until the context ends.
// It returns when every slot has exited cleanly (campaign done) or the
// shared respawn budget is exhausted.
func runFleet(ctx context.Context, o options, url string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	baseDir := o.stream + ".fleet"
	// A crashed worker is respawned into the same dir and re-sends its
	// checkpointed results; the budget only bounds pathological crash
	// loops (a worker binary that cannot start at all).
	budget := 3 * o.workers
	var budgetMu sync.Mutex
	takeRespawn := func() bool {
		budgetMu.Lock()
		defer budgetMu.Unlock()
		if budget == 0 {
			return false
		}
		budget--
		return true
	}
	var wg sync.WaitGroup
	errs := make(chan error, o.workers)
	for i := 0; i < o.workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dir := filepath.Join(baseDir, "worker"+strconv.Itoa(i))
			id := "local" + strconv.Itoa(i)
			for {
				// Local workers share the artifact dirs (dist.Artifacts).
				args := []string{"-worker", url, "-worker-dir", dir, "-worker-id", id, "-q"}
				for _, a := range [][2]string{{"-record-dir", o.recordDir}, {"-trace-dir", o.traceDir}, {"-metrics-dir", o.metricsDir}} {
					if a[1] != "" {
						args = append(args, a[0], a[1])
					}
				}
				cmd := exec.CommandContext(ctx, self, args...)
				cmd.Stderr = os.Stderr
				err := cmd.Run()
				if err == nil || ctx.Err() != nil {
					return // campaign done, or coordinator shut us down
				}
				if !takeRespawn() {
					errs <- fmt.Errorf("worker %s: %v (respawn budget exhausted)", id, err)
					return
				}
				if !o.quiet {
					fmt.Fprintf(os.Stderr, "worker %s died (%v); respawning into %s\n", id, err, dir)
				}
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// runWorkerMode is the worker side: poll the coordinator at o.worker
// for leases until the campaign completes. -worker-dir holds the local
// results.jsonl + done.ck pair that makes a kill -9'd worker resume by
// re-sending instead of re-running.
func runWorkerMode(o options) error {
	if o.workerDir == "" {
		return fmt.Errorf("-worker needs -worker-dir (the local crash-recovery directory)")
	}
	id := o.workerID
	if id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		id = host + "-" + strconv.Itoa(os.Getpid())
	}
	var logw *os.File
	if !o.quiet {
		logw = os.Stderr
	}
	client := &fabric.Client{
		Base:   o.worker,
		Worker: id,
		Retry:  cliutil.Retry{}, // defaults: 8 attempts, 100ms base, 5s cap, ±20% jitter
	}
	st, err := fabric.RunWorker(context.Background(), client, fabric.WorkerOptions{
		Dir:         o.workerDir,
		CellTimeout: workerCellTimeout(o.cellTimeout),
		Log:         logw,
		Artifacts:   artifacts(o),
	})
	if err != nil {
		return err
	}
	if !o.quiet {
		fmt.Fprintf(os.Stderr, "worker %s: %d ran (%d failed), %d re-sent, %d duplicate(s)\n",
			id, st.Ran, st.Failed, st.Resent, st.Duplicates)
	}
	// Failed cells are the coordinator's to report (-strict there);
	// a worker that delivered everything it leased exits clean.
	return nil
}

// writePostmortemFiles renders <journal>.pm.md and <journal>.pm.csv
// from a completed coordinator journal (the auto-run post-mortem at
// -serve completion; the same rendering as -postmortem).
func writePostmortemFiles(journalPath string, quiet bool) error {
	meta, events, err := fabric.ReadJournalFile(journalPath)
	if err != nil {
		return err
	}
	pm := fabric.BuildPostmortem(meta, events)
	mdPath, csvPath := journalPath+".pm.md", journalPath+".pm.csv"
	if err := cliutil.WriteTo(mdPath, pm.WriteMarkdown); err != nil {
		return err
	}
	if err := cliutil.WriteTo(csvPath, pm.WriteCSV); err != nil {
		return err
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "post-mortem: %s, %s\n", mdPath, csvPath)
	}
	return nil
}

// runPostmortem renders a campaign post-mortem from a coordinator
// journal: markdown to -out (stdout by default), per-cell CSV to -csv.
func runPostmortem(o options) error {
	meta, events, err := fabric.ReadJournalFile(o.postmortem)
	if err != nil {
		return err
	}
	pm := fabric.BuildPostmortem(meta, events)
	out := o.out
	if out == "" {
		out = "-"
	}
	if err := cliutil.WriteTo(out, pm.WriteMarkdown); err != nil {
		return err
	}
	if o.csvOut != "" {
		if err := cliutil.WriteTo(o.csvOut, pm.WriteCSV); err != nil {
			return err
		}
	}
	return nil
}

// runStatusMode prints a live fleet snapshot from a running
// coordinator: aggregate progress, per-worker telemetry rows, and the
// in-flight cells. -watch re-polls until the campaign completes.
func runStatusMode(o options) error {
	client := &fabric.Client{
		Base:   o.statusURL,
		Worker: "status",
		Retry:  cliutil.Retry{Attempts: 3},
	}
	ctx := context.Background()
	seen := false
	for {
		st, err := client.Status(ctx)
		if err != nil {
			// The coordinator exits when its campaign completes, so a
			// watched fleet going unreachable after a good snapshot is
			// the expected end of the show, not a failure.
			if seen {
				fmt.Fprintf(os.Stderr, "contracamp: coordinator gone (campaign complete or stopped): %v\n", err)
				return nil
			}
			return err
		}
		cells, err := client.Cells(ctx)
		if err != nil {
			return err
		}
		seen = true
		printFleet(st, cells)
		if st.Done >= st.Total {
			return nil
		}
		if o.watch <= 0 {
			return nil
		}
		time.Sleep(o.watch)
		fmt.Println()
	}
}

// printFleet renders one status snapshot to stdout.
func printFleet(st *fabric.Status, cells *fabric.CellsResponse) {
	name := st.Campaign
	if name == "" {
		name = "(unnamed)"
	}
	fmt.Printf("campaign %q: %d/%d cells done (%d failed), %d pending, %d in flight, %d active lease(s), %d expired, %d stolen, %d duplicate(s)\n",
		name, st.Done, st.Total, st.Failed, st.Pending, st.InFlight,
		st.ActiveLeases, st.ExpiredLeases, st.StolenLeases, st.DuplicateResults)
	if len(st.Workers) > 0 {
		rows := make([][]string, 0, len(st.Workers))
		for i := range st.Workers {
			w := &st.Workers[i]
			rows = append(rows, []string{
				w.Worker,
				strconv.Itoa(w.Leases),
				strconv.Itoa(w.Delivered),
				strconv.FormatInt(w.Heartbeats, 10),
				time.Duration(w.LastSeenNs).Round(time.Millisecond).String(),
				strconv.Itoa(w.Telemetry.CellsDone),
				time.Duration(w.Telemetry.ElapsedNs).Round(time.Millisecond).String(),
				strconv.FormatInt(w.Telemetry.UploadRetries, 10),
				strconv.Itoa(w.Telemetry.Replayed),
			})
		}
		cliutil.Table([]string{"worker", "leases", "delivered", "beats", "last-seen",
			"cells-done", "cell-elapsed", "retries", "replayed"}, rows)
	}
	var rows [][]string
	for i := range cells.Cells {
		c := &cells.Cells[i]
		if c.State != fabric.CellLeased && c.State != fabric.CellRunning {
			continue
		}
		holders := make([]string, 0, 2)
		for _, a := range c.Attempts {
			if a.Outcome == fabric.AttemptRunning {
				holders = append(holders, a.Worker)
			}
		}
		rows = append(rows, []string{
			strconv.Itoa(c.Index), c.Name, c.State,
			strconv.Itoa(len(c.Attempts)), strings.Join(holders, "+"),
		})
		if len(rows) == 10 {
			break
		}
	}
	if len(rows) > 0 {
		fmt.Println("in flight:")
		cliutil.Table([]string{"cell", "scenario", "state", "attempts", "worker(s)"}, rows)
	}
}

// workerCellTimeout maps the CLI flag convention (-1 defer to the
// grant, 0 force off, >0 override) onto fabric.WorkerOptions's (0
// defer, <0 force off, >0 override).
func workerCellTimeout(d time.Duration) time.Duration {
	switch {
	case d == 0:
		return -1
	case d < 0:
		return 0
	default:
		return d
	}
}

// failures turns scenario failures into an exit status: by default a
// campaign degrades gracefully (failed cells carry their reason in the
// JSON/CSV error column, everything else is intact) and the exit is
// clean; -strict makes any failure fatal.
func failures(failed, total int, o options) error {
	if failed == 0 {
		return nil
	}
	if o.strict {
		return fmt.Errorf("%d of %d scenarios failed", failed, total)
	}
	if !o.quiet {
		fmt.Fprintf(os.Stderr, "warning: %d of %d scenarios failed (rows carry the error; -strict makes this fatal)\n",
			failed, total)
	}
	return nil
}
