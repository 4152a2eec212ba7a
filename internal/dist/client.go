package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client is the worker side of the wire protocol: a thin JSON-POST
// helper with per-call timeouts and retry with exponential backoff +
// jitter. Coordinator unavailability (connection refused, timeouts,
// 5xx) is retried — that is what rides out a coordinator restart —
// while protocol rejections (4xx, e.g. a version-skewed join or a
// lost lease) are returned immediately as *ProtoError.
type Client struct {
	base string
	hc   *http.Client
	rng  *rand.Rand

	// CallTimeout bounds a single HTTP attempt.
	CallTimeout time.Duration
	// MaxElapsed bounds the whole retry loop for one logical call.
	MaxElapsed time.Duration
}

// ProtoError is a non-retryable protocol rejection (HTTP 4xx with the
// coordinator's ErrorResponse message).
type ProtoError struct {
	Status int
	Msg    string
}

func (e *ProtoError) Error() string {
	return fmt.Sprintf("dist: coordinator rejected request (%d): %s", e.Status, e.Msg)
}

// retryAfterError is an HTTP 429 backpressure answer: retryable, but
// the coordinator named the delay (Retry-After, seconds) instead of
// leaving it to the client's backoff schedule.
type retryAfterError struct {
	delay time.Duration
}

func (e *retryAfterError) Error() string {
	return fmt.Sprintf("dist: coordinator backpressure (429), retry after %s", e.delay)
}

// NewClient returns a client for a coordinator at host:port (scheme
// optional; plain http). Seed drives the retry jitter only — it has
// no effect on campaign trajectories.
func NewClient(addr string, seed int64) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{
		base:        strings.TrimRight(addr, "/"),
		hc:          &http.Client{},
		rng:         rand.New(rand.NewSource(seed)),
		CallTimeout: 5 * time.Second,
		MaxElapsed:  2 * time.Minute,
	}
}

// call POSTs req as JSON to path and decodes the response into out,
// retrying transient failures with exponential backoff (base 100ms,
// doubled per attempt, capped at 5s, ±50% jitter) until MaxElapsed or
// ctx expires.
func (c *Client) call(ctx context.Context, path string, req, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("dist: encode %s: %w", path, err)
	}
	deadline := time.Now().Add(c.MaxElapsed)
	backoff := 100 * time.Millisecond
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		lastErr = c.once(ctx, path, body, out)
		if lastErr == nil {
			return nil
		}
		var pe *ProtoError
		if errors.As(lastErr, &pe) {
			return lastErr
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dist: %s unreachable after %d attempts: %w", path, attempt+1, lastErr)
		}
		sleep := backoff/2 + time.Duration(c.rng.Int63n(int64(backoff)))
		var ra *retryAfterError
		if errors.As(lastErr, &ra) && ra.delay > 0 {
			// Backpressure: honor the coordinator's Retry-After instead
			// of the local backoff schedule (jitter still applies so a
			// fleet of throttled workers doesn't thundering-herd back).
			sleep = ra.delay + time.Duration(c.rng.Int63n(int64(ra.delay)/4+1))
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(sleep):
		}
		if backoff < 5*time.Second {
			backoff *= 2
		}
	}
}

func (c *Client) once(ctx context.Context, path string, body []byte, out any) error {
	cctx, cancel := context.WithTimeout(ctx, c.CallTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(cctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		if out == nil {
			return nil
		}
		return json.Unmarshal(data, out)
	case resp.StatusCode == http.StatusTooManyRequests:
		delay := time.Second
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
				delay = time.Duration(secs) * time.Second
			}
		}
		return &retryAfterError{delay: delay}
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		var er ErrorResponse
		_ = json.Unmarshal(data, &er)
		if er.Error == "" {
			er.Error = strings.TrimSpace(string(data))
		}
		return &ProtoError{Status: resp.StatusCode, Msg: er.Error}
	default:
		return fmt.Errorf("dist: %s: HTTP %d", path, resp.StatusCode)
	}
}

// Typed wrappers for each endpoint.

func (c *Client) Join(ctx context.Context, req JoinRequest) (JoinResponse, error) {
	var out JoinResponse
	err := c.call(ctx, "/v1/join", req, &out)
	return out, err
}

func (c *Client) Lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error) {
	var out LeaseResponse
	err := c.call(ctx, "/v1/lease", req, &out)
	return out, err
}

func (c *Client) Heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	var out HeartbeatResponse
	err := c.call(ctx, "/v1/heartbeat", req, &out)
	return out, err
}

func (c *Client) Report(ctx context.Context, req ReportRequest) (ReportResponse, error) {
	var out ReportResponse
	err := c.call(ctx, "/v1/report", req, &out)
	return out, err
}

func (c *Client) Batch(ctx context.Context, req BatchRequest) (BatchResponse, error) {
	var out BatchResponse
	err := c.call(ctx, "/v1/batch", req, &out)
	return out, err
}
