package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// APIError is a non-2xx response from the server, decoded from its JSON
// error body.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the wire error code (ErrCode*).
	Code string
	// Message is the server's human-readable explanation.
	Message string
	// RetryAfter is the server's Retry-After hint, when it sent one.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("histd: %s (%d %s)", e.Message, e.Status, e.Code)
}

// Temporary reports whether the failure is admission-control pushback
// (429) or drain (503) — the conditions Client retries with backoff.
func (e *APIError) Temporary() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// Client is a typed client of the histd HTTP API with retry/backoff on
// admission-control pushback: a 429 (queue full) or 503 (draining)
// response is retried up to MaxRetries times, waiting the server's
// Retry-After hint (clamped to MaxBackoff) or an exponential backoff
// when the hint is absent. All other failures surface immediately.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8765".
	BaseURL string
	// HTTPClient is the underlying transport; nil means http.DefaultClient.
	HTTPClient *http.Client
	// MaxRetries bounds the retry attempts after the first try (default 5;
	// negative disables retrying).
	MaxRetries int
	// BaseBackoff seeds the exponential backoff used when the server
	// sends no Retry-After hint (default 100ms). Doubles per attempt.
	BaseBackoff time.Duration
	// MaxBackoff clamps every wait, hinted or not (default 5s).
	MaxBackoff time.Duration
}

// New returns a Client for the server at baseURL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) maxRetries() int {
	if c.MaxRetries == 0 {
		return 5
	}
	if c.MaxRetries < 0 {
		return 0
	}
	return c.MaxRetries
}

func (c *Client) baseBackoff() time.Duration {
	if c.BaseBackoff > 0 {
		return c.BaseBackoff
	}
	return 100 * time.Millisecond
}

func (c *Client) maxBackoff() time.Duration {
	if c.MaxBackoff > 0 {
		return c.MaxBackoff
	}
	return 5 * time.Second
}

// Test runs one tester request and returns its verdict.
func (c *Client) Test(ctx context.Context, req TestRequest) (*TestResult, error) {
	var res TestResult
	if err := c.postRetry(ctx, "/v1/test", req, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// RegisterSampler registers a distribution spec and returns its ID for
// use in TestRequest.Sampler.
func (c *Client) RegisterSampler(ctx context.Context, spec HistogramSpec) (*RegisterResponse, error) {
	var res RegisterResponse
	if err := c.postRetry(ctx, "/v1/samplers", spec, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// TestStream submits a batch and invokes fn for each result as it
// arrives (completion order, each tagged with its request index). A
// non-nil error from fn aborts the stream and is returned. The batch is
// admitted whole or pushed back (429, retried); a batch larger than the
// server's queue depth can never be admitted and fails at once with a
// 400 *APIError.
func (c *Client) TestStream(ctx context.Context, reqs []TestRequest, fn func(TestResult) error) error {
	return c.retry(ctx, func() error {
		resp, err := c.post(ctx, "/v1/test/stream", BatchRequest{Requests: reqs})
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<26)
		for sc.Scan() {
			var res TestResult
			if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
				return fmt.Errorf("histd: decoding stream line: %w", err)
			}
			if err := fn(res); err != nil {
				return err
			}
		}
		return sc.Err()
	})
}

// TestBatch submits a batch and collects every result, returned in
// request order (index i of the result slice answers reqs[i]).
func (c *Client) TestBatch(ctx context.Context, reqs []TestRequest) ([]TestResult, error) {
	out := make([]TestResult, 0, len(reqs))
	err := c.TestStream(ctx, reqs, func(r TestResult) error {
		out = append(out, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out, nil
}

// Health reports whether the server is admitting requests (nil), or the
// reason it is not.
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return nil
	}
	return decodeAPIError(resp)
}

// postRetry posts the request with the retry policy and decodes the JSON
// response into out.
func (c *Client) postRetry(ctx context.Context, path string, body, out any) error {
	return c.retry(ctx, func() error {
		resp, err := c.post(ctx, path, body)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		return json.NewDecoder(resp.Body).Decode(out)
	})
}

// post performs one POST attempt; a non-2xx response is returned as
// *APIError.
func (c *Client) post(ctx context.Context, path string, body any) (*http.Response, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		apiErr := decodeAPIError(resp)
		resp.Body.Close()
		return nil, apiErr
	}
	return resp, nil
}

// retry runs attempt under the client's backoff policy: temporary
// pushback (429/503) waits and retries; anything else returns at once.
func (c *Client) retry(ctx context.Context, attempt func() error) error {
	backoff := c.baseBackoff()
	for tries := 0; ; tries++ {
		err := attempt()
		apiErr, ok := err.(*APIError)
		if err == nil || !ok || !apiErr.Temporary() || tries >= c.maxRetries() {
			return err
		}
		// A server Retry-After hint overrides the exponential schedule for
		// this wait and leaves the exponential state untouched: the hint
		// says nothing about how loaded the server will be next time, and
		// advancing the exponent on hinted attempts meant a long pushback
		// streak silently inflated the state so a later hint-less attempt
		// jumped to an outsized wait. Only hint-less waits double it.
		wait := apiErr.RetryAfter
		if wait <= 0 {
			wait = backoff
			backoff *= 2
		}
		if lim := c.maxBackoff(); wait > lim {
			wait = lim
		}
		timer := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		case <-timer.C:
		}
	}
}

// decodeAPIError turns a non-2xx response into an *APIError, tolerating
// non-JSON bodies.
func decodeAPIError(resp *http.Response) *APIError {
	apiErr := &APIError{Status: resp.StatusCode, Code: ErrCodeInternal}
	apiErr.RetryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var wire ErrorResponse
	if err := json.Unmarshal(body, &wire); err == nil && wire.Code != "" {
		apiErr.Code = wire.Code
		apiErr.Message = wire.Error
	} else {
		apiErr.Message = strings.TrimSpace(string(body))
		if apiErr.Message == "" {
			apiErr.Message = resp.Status
		}
	}
	return apiErr
}

// parseRetryAfter parses both forms RFC 9110 §10.2.3 allows for the
// Retry-After header: delay-seconds ("120") and an HTTP-date ("Fri, 07
// Aug 2026 12:00:00 GMT"). histd itself always sends delay-seconds, but
// the client may sit behind proxies and gateways that rewrite the header
// to a date — dropping it there silently degraded hinted waits to the
// exponential schedule. A date in the past (or an unparsable value)
// yields 0, i.e. no hint.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs > 0 {
			return time.Duration(secs) * time.Second
		}
		return 0
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}
