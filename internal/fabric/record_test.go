package fabric

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"contra/internal/dist"
	"contra/internal/flowtrace"
)

// TestWorkerRecordDirWritesCellTraces pins the fabric half of flow
// recording: a worker given a flow artifact dir turns recording on for every
// leased cell (the grant's scenario never carries the flag — it does
// not cross the wire) and leaves one valid v1 trace per cell, named by
// sanitized cell name, durable before the upload.
func TestWorkerRecordDirWritesCellTraces(t *testing.T) {
	spec := e2eSpec()
	spec.Loads = spec.Loads[:1]
	spec.Seeds = spec.Seeds[:1] // 2 cells
	var buf bytes.Buffer
	coord, err := New(spec, dist.NewJSONLSink(&buf), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	recDir := filepath.Join(t.TempDir(), "traces")
	st, err := RunWorker(context.Background(), testClient(srv.URL, "w1"), WorkerOptions{
		Dir:          t.TempDir(),
		WaitInterval: 5 * time.Millisecond,
		Artifacts:    dist.Artifacts{Flow: recDir},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Ran != spec.Size() || st.Failed != 0 {
		t.Fatalf("worker stats %+v, want %d ran and 0 failed", st, spec.Size())
	}

	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		path := filepath.Join(recDir, flowtrace.FileName(j.Scenario.Name))
		tr, err := flowtrace.ReadFile(path)
		if err != nil {
			t.Fatalf("cell %s: %v", j.Scenario.Name, err)
		}
		if len(tr.Flows) == 0 {
			t.Fatalf("cell %s: trace carries no flows", j.Scenario.Name)
		}
	}
	entries, err := os.ReadDir(recDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != spec.Size() {
		t.Fatalf("record dir holds %d files, want one per cell (%d)", len(entries), spec.Size())
	}

	// The uploaded records must not grow: FlowTrace stays out of the
	// wire format (json:"-"), recording is a local artifact.
	if bytes.Contains(buf.Bytes(), []byte(`"flow_trace"`)) || bytes.Contains(buf.Bytes(), []byte(`"FlowTrace"`)) {
		t.Fatal("flow trace leaked into the coordinator record stream")
	}
}
