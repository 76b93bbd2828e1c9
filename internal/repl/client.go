package repl

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Client fetches replication state from a primary's /v1/repl endpoints.
type Client struct {
	base    string
	hc      *http.Client
	timeout time.Duration
}

// NewClient builds a client for the primary at base (e.g.
// "http://10.0.0.1:9090"). Every request carries a deadline (default 30s)
// on top of whatever context the caller passes.
func NewClient(base string, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return &Client{base: base, hc: &http.Client{}, timeout: timeout}
}

// get fetches one URL, bounding the request with the client deadline and
// capping the response size at maxReplBody.
func (c *Client) get(ctx context.Context, path string) ([]byte, int, error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(io.LimitReader(resp.Body, maxReplBody))
	if err != nil {
		return nil, resp.StatusCode, err
	}
	return blob, resp.StatusCode, nil
}

// maxReplBody caps fetched replication bodies (a Full delta ships whole store
// files, so the cap is generous).
const maxReplBody = 4 << 30

// Deltas asks the primary what follows generation `from` under `epoch` and
// returns its answer, wire-verified: an empty batch when caught up, the deltas
// that continue the cursor, or one Full delta when the primary cannot continue
// it (another epoch, a cursor off its log, the zero cursor of a new replica).
func (c *Client) Deltas(ctx context.Context, epoch, from uint64) (*Batch, error) {
	path := "/v1/repl/deltas?epoch=" + strconv.FormatUint(epoch, 10) +
		"&from=" + strconv.FormatUint(from, 10)
	blob, code, err := c.get(ctx, path)
	if err != nil {
		return nil, fmt.Errorf("repl: deltas: %w", err)
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("repl: deltas: HTTP %d: %s", code, firstLine(blob))
	}
	return DecodeBatch(blob)
}

func firstLine(b []byte) string {
	for i, c := range b {
		if c == '\n' || i >= 200 {
			return string(b[:i])
		}
	}
	return string(b)
}
