package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"contra/internal/dist"
	"contra/internal/jsonl"
)

// The wire protocol: three plain HTTP/JSON endpoints. Every request
// carries the worker's self-chosen id, used only to bind leases to
// their holders and to label status — there is no registration step,
// so a restarted worker (same or new id) just starts calling.
//
//	POST /v1/lease     {"worker":w}                → {"status":"lease","grant":{…}}
//	                                              | {"status":"wait","retry_ns":n}
//	                                              | {"status":"done"}
//	POST /v1/heartbeat {"worker":w,"lease_id":id}  → {"ok":bool}
//	POST /v1/result    {"worker":w,"lease_id":id,"record":{…}} → {"duplicate":bool}
//
// 4xx responses mark permanent protocol errors (malformed request,
// unknown cell key, a body past its bound: 413); 5xx responses are
// transient (a sink write failed) and workers retry them with backoff.

// Request bodies are read up to a bound, like every other reader of
// outside bytes here. A result carries one record, which is one line of
// the record stream, so it gets that format's line bound; a lease poll
// or a heartbeat is a few dozen bytes of ids.
const (
	maxResultBody  = jsonl.MaxLine
	maxControlBody = 1 << 20
)

// Lease response statuses.
const (
	StatusLease = "lease" // grant holds a cell to run
	StatusWait  = "wait"  // all cells leased, nothing stealable yet: poll again
	StatusDone  = "done"  // campaign complete: exit
)

type leaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse is the wire answer to a lease poll.
type LeaseResponse struct {
	Status  string `json:"status"`
	Grant   *Grant `json:"grant,omitempty"`
	RetryNs int64  `json:"retry_ns,omitempty"`
}

type heartbeatRequest struct {
	Worker  string `json:"worker"`
	LeaseID int64  `json:"lease_id"`
}

type heartbeatResponse struct {
	OK bool `json:"ok"`
}

type resultRequest struct {
	Worker  string       `json:"worker"`
	LeaseID int64        `json:"lease_id,omitempty"`
	Record  *dist.Record `json:"record"`
}

type resultResponse struct {
	Duplicate bool `json:"duplicate"`
}

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req leaseRequest
		if !decodeJSON(w, r, maxControlBody, &req) || !hasWorker(w, req.Worker) {
			return
		}
		grant, done := c.Lease(req.Worker)
		resp := LeaseResponse{Status: StatusWait, RetryNs: int64(HeartbeatInterval(c.opts.leaseTTL()))}
		switch {
		case done:
			resp = LeaseResponse{Status: StatusDone}
		case grant != nil:
			resp = LeaseResponse{Status: StatusLease, Grant: grant}
		}
		writeJSON(w, &resp)
	})
	mux.HandleFunc("POST /v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req heartbeatRequest
		if !decodeJSON(w, r, maxControlBody, &req) || !hasWorker(w, req.Worker) {
			return
		}
		writeJSON(w, &heartbeatResponse{OK: c.Heartbeat(req.Worker, req.LeaseID)})
	})
	mux.HandleFunc("POST /v1/result", func(w http.ResponseWriter, r *http.Request) {
		var req resultRequest
		if !decodeJSON(w, r, maxResultBody, &req) || !hasWorker(w, req.Worker) {
			return
		}
		if req.Record == nil {
			http.Error(w, "fabric: result without a record", http.StatusBadRequest)
			return
		}
		dup, err := c.Result(req.Worker, req.LeaseID, req.Record)
		if err != nil {
			status := http.StatusBadRequest // protocol error: do not retry
			if !isProtocolError(err) {
				status = http.StatusInternalServerError // sink trouble: retry
			}
			http.Error(w, err.Error(), status)
			return
		}
		writeJSON(w, &resultResponse{Duplicate: dup})
	})
	return mux
}

// isProtocolError separates "the request itself is wrong" (permanent,
// 4xx) from "the coordinator failed to act on it" (transient, 5xx).
// Coordinator.Result returns exactly two error shapes: its own
// protocol errors (prefixed "fabric:") and sink write errors.
func isProtocolError(err error) bool {
	return strings.HasPrefix(err.Error(), "fabric:")
}

// decodeJSON reads at most limit bytes of request body into into,
// answering 413 when the body is longer and 400 when it is not JSON.
func decodeJSON(w http.ResponseWriter, r *http.Request, limit int64, into any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(into)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	http.Error(w, fmt.Sprintf("fabric: bad request body: %v", err), status)
	return false
}

// hasWorker refuses a request that names no worker: leases are bound to
// their holder by that id.
func hasWorker(w http.ResponseWriter, worker string) bool {
	if worker == "" {
		http.Error(w, "fabric: request without a worker id", http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	// An encode failure here means the response is already committed;
	// the worker's decode error surfaces it as a transient retry.
	_ = json.NewEncoder(w).Encode(v)
}
