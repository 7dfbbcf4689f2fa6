package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

var postEndpoints = []string{"/v1/lease", "/v1/heartbeat", "/v1/result"}

// post sends one body to the coordinator's handler, no socket involved.
func post(h http.Handler, path string, body io.Reader) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, body))
	return w
}

// endless is a request body with no end: 'w' for as long as it is read.
type endless struct{}

func (endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'w'
	}
	return len(p), nil
}

// TestOversizedBodyIs413 sends each POST endpoint a JSON string that
// never closes, so only the bound ends the read. The coordinator must
// answer 413 — a 4xx, so Client gives up instead of retrying — and keep
// serving.
func TestOversizedBodyIs413(t *testing.T) {
	c, _ := newTestCoordinator(t, Options{})
	h := c.Handler()
	for _, path := range postEndpoints {
		body := io.MultiReader(strings.NewReader(`{"worker":"`), endless{})
		if got := post(h, path, body).Code; got != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with an endless body: status %d, want 413", path, got)
		}
	}
	w := post(h, "/v1/lease", strings.NewReader(`{"worker":"w1"}`))
	var resp LeaseResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || w.Code != http.StatusOK || resp.Status != StatusLease {
		t.Fatalf("lease after the oversized posts: status %d, body %q, err %v", w.Code, w.Body, err)
	}
}

// handlerSeeds are request bodies around one real grant: the requests a
// worker sends, and the ways they go wrong.
func handlerSeeds(g *Grant) map[string][]string {
	rec, _ := json.Marshal(fakeRecord(g))
	result := func(lease int64, record string) string {
		return fmt.Sprintf(`{"worker":"w1","lease_id":%d,"record":%s}`, lease, record)
	}
	other := *fakeRecord(g)
	other.Scenario = nil
	noScenario, _ := json.Marshal(&other)
	return map[string][]string{
		"/v1/lease": {`{"worker":"w2"}`, `{}`, `{"worker":7}`, `{"worker":"w1"`, ``, `null`, `[]`},
		"/v1/heartbeat": {
			fmt.Sprintf(`{"worker":"w1","lease_id":%d}`, g.LeaseID),
			`{"worker":"w1","lease_id":999}`,                        // forged lease
			fmt.Sprintf(`{"worker":"w9","lease_id":%d}`, g.LeaseID), // someone else's lease
			`{"worker":"w1","lease_id":-9223372036854775808}`,
			`{"lease_id":"1"}`,
		},
		"/v1/result": {
			result(g.LeaseID, string(rec)),
			result(0, string(rec)),   // lease-less re-send
			result(999, string(rec)), // forged lease
			result(g.LeaseID, string(noScenario)),
			result(g.LeaseID, strings.Replace(string(rec), g.Key, "nope#0000000000000000", 1)),                      // unknown key
			result(g.LeaseID, strings.Replace(string(rec), `"index":0`, `"index":3`, 1)),                            // another cell's index
			result(g.LeaseID, strings.Replace(string(rec), `"scheme":"ecmp"`, `"scheme":"sp"`, 1)),                  // key and scenario disagree
			result(g.LeaseID, strings.Replace(string(rec), `"error":"fabricated"`, `"error":"cell budget: xx"`, 1)), // a cell over budget
			`{"worker":"w1","lease_id":1}`, // no record
			`{"worker":"w1","record":null}`,
			`{"worker":"w1","record":{"key":""}}`,
			`{"record":{"index":-1,"key":"` + g.Key + `"}}`,
		},
	}
}

// FuzzHandler posts arbitrary bodies — twice each, since at-least-once
// delivery replays requests — to a coordinator with one cell leased.
// Whatever arrives, the handler must not panic, must not answer 5xx (the
// sink here cannot fail, so a 5xx would blame the coordinator for a bad
// request and make workers retry it forever), must keep serving, and
// must leave Status and Cells coherent.
func FuzzHandler(f *testing.F) {
	c, _ := newTestCoordinator(f, Options{})
	seeds := handlerSeeds(mustLease(f, c, "w1"))
	for i, path := range postEndpoints {
		for _, body := range seeds[path] {
			f.Add(uint8(i), []byte(body))
		}
	}
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		c, _ := newTestCoordinator(t, Options{})
		mustLease(t, c, "w1")
		h := c.Handler()
		path := postEndpoints[int(endpoint)%len(postEndpoints)]
		for i := 0; i < 2; i++ {
			if w := post(h, path, bytes.NewReader(body)); w.Code >= 500 {
				t.Fatalf("POST %s #%d: status %d (%s)", path, i+1, w.Code, strings.TrimSpace(w.Body.String()))
			}
		}
		st := c.Status()
		if st.Total != 4 || st.Done > 1 || st.Failed > st.Done || st.Pending+st.InFlight+st.Done != st.Total {
			t.Fatalf("incoherent status after POST %s: %+v", path, st)
		}
		done := 0
		for _, cs := range c.Cells() {
			if cs.State == CellDone {
				done++
			}
		}
		if done != st.Done {
			t.Fatalf("Cells counts %d done, Status %d, after POST %s", done, st.Done, path)
		}
	})
}
