package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"contra/internal/cliutil"
	"contra/internal/dist"
)

// Client is the worker side of the wire protocol. Every call retries
// transient failures — transport errors (the coordinator is
// restarting, the network blipped) and 5xx responses — with the
// configured backoff; 4xx responses are permanent and fail
// immediately.
type Client struct {
	// Base is the coordinator URL, e.g. "http://127.0.0.1:7070".
	Base string

	// Worker is this worker's self-chosen id, sent with every call.
	Worker string

	// Retry is the backoff policy for transient failures; the zero
	// value is the cliutil.Retry default (8 attempts, 100ms base, 5s
	// cap, ±20% jitter).
	Retry cliutil.Retry
}

// call POSTs req as JSON to path and decodes the response into resp,
// classifying failures for the retry policy.
func (c *Client) call(ctx context.Context, path string, req, resp any) error {
	b, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return c.Retry.Do(ctx, func() error {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
			strings.TrimSuffix(c.Base, "/")+path, bytes.NewReader(b))
		if err != nil {
			return cliutil.Permanent(err)
		}
		hreq.Header.Set("Content-Type", "application/json")
		hresp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			return err // transport error: transient
		}
		defer hresp.Body.Close()
		if hresp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 4<<10))
			err := fmt.Errorf("POST %s: %s: %s", path, hresp.Status, bytes.TrimSpace(msg))
			if hresp.StatusCode >= 400 && hresp.StatusCode < 500 {
				return cliutil.Permanent(err)
			}
			return err
		}
		if err := json.NewDecoder(hresp.Body).Decode(resp); err != nil {
			return fmt.Errorf("POST %s: decode response: %v", path, err)
		}
		return nil
	})
}

// Lease polls the coordinator for a cell.
func (c *Client) Lease(ctx context.Context) (*LeaseResponse, error) {
	var resp LeaseResponse
	if err := c.call(ctx, "/v1/lease", &leaseRequest{Worker: c.Worker}, &resp); err != nil {
		return nil, err
	}
	if resp.Status == StatusLease && resp.Grant == nil {
		return nil, fmt.Errorf("fabric: lease response without a grant")
	}
	return &resp, nil
}

// Heartbeat extends a lease. The answer says whether the lease is still
// live; a worker finishes its cell either way, since the result dedup
// makes a lost lease harmless.
func (c *Client) Heartbeat(ctx context.Context, leaseID int64) error {
	return c.call(ctx, "/v1/heartbeat", &heartbeatRequest{Worker: c.Worker, LeaseID: leaseID}, &heartbeatResponse{})
}

// Result uploads one cell record; leaseID 0 is a lease-less delivery
// (resume re-sends). A record the coordinator already holds is
// answered as a duplicate, which is not an error.
func (c *Client) Result(ctx context.Context, leaseID int64, rec *dist.Record) error {
	return c.call(ctx, "/v1/result", &resultRequest{Worker: c.Worker, LeaseID: leaseID, Record: rec}, &resultResponse{})
}
