package fabric

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"contra/internal/campaign"
	"contra/internal/cliutil"
	"contra/internal/dist"
	"contra/internal/scenario"
)

// e2eSpec is a real (cheap) 8-cell campaign: 2 schemes × 2 loads × 2
// seeds on the dc topology.
func e2eSpec() *campaign.Spec {
	return &campaign.Spec{
		Name:    "fabric-e2e",
		Topos:   []string{"dc"},
		Schemes: []scenario.Scheme{scenario.SchemeECMP, scenario.SchemeSP},
		Loads:   []float64{0.2, 0.3},
		Seeds:   []int64{1, 2},
		Workload: scenario.Workload{
			Dist: "cache", DurationNs: 2_000_000, MaxFlows: 60,
		},
	}
}

// reportBytes renders a report exactly as the CLI would.
func reportBytes(t *testing.T, r *campaign.Report) (jsonOut, csvOut []byte) {
	t.Helper()
	var j, c bytes.Buffer
	if err := r.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteCSV(&c); err != nil {
		t.Fatal(err)
	}
	return j.Bytes(), c.Bytes()
}

func testClient(url, worker string) *Client {
	return &Client{
		Base:   url,
		Worker: worker,
		Retry:  cliutil.Retry{Attempts: 5, Base: time.Millisecond, Cap: 20 * time.Millisecond, Jitter: cliutil.NoJitter},
	}
}

// TestCrashFleetByteIdenticalToSingleProcess is the determinism
// contract end to end: a 3-worker fleet over a real HTTP coordinator,
// with workers crashing at seeded-random fault points (both before
// running a cell and after recording but before uploading) and
// restarting into the same durability dir, must merge to byte-for-byte
// the JSON and CSV of a plain single-process campaign.Run.
func TestCrashFleetByteIdenticalToSingleProcess(t *testing.T) {
	spec := e2eSpec()
	ref, err := campaign.Run(spec, campaign.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	refJSON, refCSV := reportBytes(t, ref)

	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			gotJSON, gotCSV, crashes := runCrashFleet(t, spec, seed)
			if !bytes.Equal(gotJSON, refJSON) {
				t.Errorf("merged JSON differs from single-process run (%d injected crashes)", crashes)
			}
			if !bytes.Equal(gotCSV, refCSV) {
				t.Errorf("merged CSV differs from single-process run (%d injected crashes)", crashes)
			}
		})
	}
}

// runCrashFleet runs spec to completion on a crash-injected 3-worker
// fleet and returns the merged report bytes plus the number of
// injected crashes.
func runCrashFleet(t *testing.T, spec *campaign.Spec, seed int64) (jsonOut, csvOut []byte, crashes int) {
	t.Helper()
	dir := t.TempDir()
	streamPath := filepath.Join(dir, "coord.jsonl")
	sink, err := dist.CreateJSONL(streamPath, false)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := New(spec, sink, nil, Options{
		LeaseTTL:   200 * time.Millisecond,
		StealAfter: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	// Seeded fault injection: each crash decision consumes the shared
	// RNG; at most maxCrashes fire so the run always terminates fast.
	const maxCrashes = 6
	rng := rand.New(rand.NewSource(seed))
	var faultMu sync.Mutex
	decide := func(stage crashStage, key string) bool {
		faultMu.Lock()
		defer faultMu.Unlock()
		if crashes >= maxCrashes || rng.Float64() >= 0.3 {
			return false
		}
		crashes++
		return true
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const workers = 3
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wdir := filepath.Join(dir, fmt.Sprintf("w%d", i))
			// Restart loop: an injected crash kills the incarnation;
			// the next one reuses the same durability dir, exactly like
			// a respawned process.
			for {
				client := testClient(srv.URL, fmt.Sprintf("w%d", i))
				_, err := RunWorker(ctx, client, WorkerOptions{
					Dir:          wdir,
					WaitInterval: 5 * time.Millisecond,
					crash:        decide,
				})
				if errors.Is(err, ErrWorkerCrashed) {
					continue
				}
				if err != nil && ctx.Err() == nil {
					t.Errorf("worker w%d: %v", i, err)
				}
				return
			}
		}(i)
	}

	fleetDone := make(chan struct{})
	go func() { wg.Wait(); close(fleetDone) }()
	select {
	case <-fleetDone:
	case <-time.After(60 * time.Second):
		cancel()
		t.Fatalf("fleet did not finish: %+v", coord.Status())
	}
	select {
	case <-coord.Done():
	default:
		t.Fatalf("fleet exited but campaign not done: %+v", coord.Status())
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	st := coord.Status()
	if st.Done != st.Total || st.Failed != 0 {
		t.Fatalf("campaign state %+v, want all %d done, none failed", st, st.Total)
	}
	report, err := dist.Merge([]string{streamPath})
	if err != nil {
		t.Fatal(err)
	}
	checkCellHistories(t, coord.Cells())
	jsonOut, csvOut = reportBytes(t, report)
	return jsonOut, csvOut, crashes
}

// checkCellHistories asserts what must hold of every cell's attempt
// history once the campaign is done, however the run crashed, expired
// and stole: the cell is done, no attempt is left running, and at most
// one attempt delivered the accepted result (none when a lease-less
// re-send did).
func checkCellHistories(t *testing.T, cells []CellStatus) {
	t.Helper()
	for _, cs := range cells {
		if cs.State != CellDone || len(cs.Attempts) == 0 {
			t.Errorf("cell %d: state %q after %d attempt(s), want done after at least one", cs.Index, cs.State, len(cs.Attempts))
		}
		delivered := 0
		for _, a := range cs.Attempts {
			switch a.Outcome {
			case AttemptRunning:
				t.Errorf("cell %d: attempt by %s still running after the campaign", cs.Index, a.Worker)
			case AttemptDelivered:
				delivered++
			}
		}
		if delivered > 1 {
			t.Errorf("cell %d: %d attempts delivered, want at most one", cs.Index, delivered)
		}
	}
}

// TestWorkerResendsCheckpointedResultAfterCrash pins the local resume
// path in isolation: a worker killed after recording a cell but before
// uploading must, on restart into the same dir, deliver the stored
// record without re-running the scenario.
func TestWorkerResendsCheckpointedResultAfterCrash(t *testing.T) {
	spec := e2eSpec()
	spec.Schemes = spec.Schemes[:1]
	spec.Loads = spec.Loads[:1]
	spec.Seeds = spec.Seeds[:1] // one cell
	var buf bytes.Buffer
	coord, err := New(spec, dist.NewJSONLSink(&buf), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	dir := t.TempDir()
	crashed := false
	opts := WorkerOptions{
		Dir:          dir,
		WaitInterval: 5 * time.Millisecond,
		crash: func(stage crashStage, key string) bool {
			if stage == crashRecorded && !crashed {
				crashed = true
				return true
			}
			return false
		},
	}
	ctx := context.Background()
	if _, err := RunWorker(ctx, testClient(srv.URL, "w1"), opts); !errors.Is(err, ErrWorkerCrashed) {
		t.Fatalf("first incarnation: err = %v, want ErrWorkerCrashed", err)
	}
	if buf.Len() != 0 {
		t.Fatal("record reached the coordinator before the crash")
	}
	st, err := RunWorker(ctx, testClient(srv.URL, "w1"), opts)
	if err != nil {
		t.Fatalf("second incarnation: %v", err)
	}
	if st.Ran != 0 || st.Resent != 1 {
		t.Fatalf("second incarnation stats %+v, want 0 ran / 1 re-sent", st)
	}
	select {
	case <-coord.Done():
	default:
		t.Fatal("campaign not done after re-send")
	}
	recs, err := dist.ReadRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("coordinator stream holds %d records, want 1", len(recs))
	}
}
