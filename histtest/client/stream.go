package client

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"time"
)

// Streaming-ingestion API: register a stream, pour raw events into it,
// and ask the server to test the accumulated counts — the tester runs
// over the tally without the client ever materializing a sample array.
//
// Every method reuses the client's bounded retry/backoff: 429 (ingest
// queue or registry full) and 503 (draining) wait out the server's
// Retry-After hint and try again, so ingest clients degrade gracefully
// under backpressure instead of dropping batches. Ingest retries are
// safe: the server acquires its admission slot BEFORE reading the body,
// so a 429/503 response means no event of the batch was applied.

// StreamSpec registers an ingestion stream: the domain and tester
// parameters, plus the accumulator/window shape.
type StreamSpec struct {
	// Tenant scopes the server's per-tenant stream quota ("" = default).
	Tenant string `json:"tenant,omitempty"`
	// N is the domain size: events are integers in [0, N). Required.
	N int `json:"n"`
	// K and Eps are the tester parameters bound to the stream.
	K   int     `json:"k"`
	Eps float64 `json:"eps"`
	// Seed anchors snapshot reproducibility (0 means 1): tests of equal
	// tallies under equal seeds return bit-identical verdicts.
	Seed uint64 `json:"seed,omitempty"`
	// Paper switches the stream's tests to the literal paper constants.
	Paper bool `json:"paper,omitempty"`

	// Shards overrides the accumulator shard count (0 = server default,
	// 4× server GOMAXPROCS rounded to a power of two).
	Shards int `json:"shards,omitempty"`
	// Generations is the sliding-window sub-tally count (0 = server
	// default: 1 without a window, 8 with one).
	Generations int `json:"generations,omitempty"`
	// WindowMS rotates the window every WindowMS milliseconds; 0 keeps
	// an ever-growing tally.
	WindowMS int64 `json:"window_ms,omitempty"`
	// RetestEveryMS schedules periodic automatic re-tests; 0 disables.
	RetestEveryMS int64 `json:"retest_every_ms,omitempty"`
	// ForceSparse forces the open-addressed backing regardless of the
	// dense/sparse heuristic (diagnostics; huge sparse domains).
	ForceSparse bool `json:"force_sparse,omitempty"`
}

// StreamTestRecord is a stream's most recent test outcome, echoed in
// StreamInfo.
type StreamTestRecord struct {
	At       time.Time `json:"at"`
	Seed     uint64    `json:"seed"`
	Events   int64     `json:"events"`
	Distinct int       `json:"distinct"`
	Accept   bool      `json:"accept"`
	Stage    string    `json:"reject_stage,omitempty"`
	Err      string    `json:"error,omitempty"`
}

// StreamInfo describes a live stream.
type StreamInfo struct {
	ID          string    `json:"id"`
	Tenant      string    `json:"tenant"`
	N           int       `json:"n"`
	K           int       `json:"k"`
	Eps         float64   `json:"eps"`
	Seed        uint64    `json:"seed"`
	Dense       bool      `json:"dense"`
	Shards      int       `json:"shards"`
	Generations int       `json:"generations"`
	WindowMS    int64     `json:"window_ms,omitempty"`
	Created     time.Time `json:"created"`

	// WindowEvents counts the events inside the live window;
	// TotalEvents every event ever ingested; Rotations how many times
	// the window has advanced.
	WindowEvents int64 `json:"window_events"`
	TotalEvents  int64 `json:"total_events"`
	Batches      int64 `json:"batches"`
	Rotations    int64 `json:"rotations"`

	LastTest *StreamTestRecord `json:"last_test,omitempty"`
}

// IngestResponse acknowledges one ingested batch.
type IngestResponse struct {
	// Events is the number of events applied from this request.
	Events int64 `json:"events"`
	// WindowEvents / TotalEvents mirror StreamInfo after the batch.
	WindowEvents int64 `json:"window_events"`
	TotalEvents  int64 `json:"total_events"`
}

// StreamTestRequest asks for a test over a stream's current window.
// Zero values inherit the stream's registration parameters.
type StreamTestRequest struct {
	// Seed overrides the stream's snapshot seed for this run (0 = the
	// stream's own seed).
	Seed uint64 `json:"seed,omitempty"`
	// TimeoutMS caps the run's server-side wall clock.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// StreamTestResponse is a test verdict over a stream snapshot: the
// ordinary TestResult plus the snapshot's provenance.
type StreamTestResponse struct {
	TestResult
	StreamID string `json:"stream_id"`
	// Events and Distinct describe the snapshot the verdict covers.
	Events   int64  `json:"events"`
	Distinct int    `json:"distinct"`
	Seed     uint64 `json:"seed"`
}

// EncodeEventsBinary renders values as one binary ingest frame (uvarint
// event count, then each event as a uvarint) — the payload of
// IngestEvents and the fastest wire form for bulk ingest.
func EncodeEventsBinary(values []int) []byte {
	buf := make([]byte, 0, binary.MaxVarintLen64+2*len(values))
	var tmp [binary.MaxVarintLen64]byte
	buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(len(values)))]...)
	for _, v := range values {
		buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(v))]...)
	}
	return buf
}

// CreateStream registers an ingestion stream and returns its info
// (including the server-assigned ID).
func (c *Client) CreateStream(ctx context.Context, spec StreamSpec) (*StreamInfo, error) {
	var info StreamInfo
	if err := c.postRetry(ctx, "/v1/streams", spec, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// GetStream fetches a stream's current state.
func (c *Client) GetStream(ctx context.Context, id string) (*StreamInfo, error) {
	var info StreamInfo
	err := c.retry(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.streamURL(id, ""), nil)
		if err != nil {
			return err
		}
		resp, err := c.do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		return json.NewDecoder(resp.Body).Decode(&info)
	})
	if err != nil {
		return nil, err
	}
	return &info, nil
}

// DeleteStream removes a stream and frees its accumulator.
func (c *Client) DeleteStream(ctx context.Context, id string) error {
	return c.retry(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.streamURL(id, ""), nil)
		if err != nil {
			return err
		}
		resp, err := c.do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
		return nil
	})
}

// IngestEvents posts one batch of events (values in [0, N)) in the
// binary frame format and returns the server's acknowledgment. The
// payload is encoded once and reused across retries.
func (c *Client) IngestEvents(ctx context.Context, id string, values []int) (*IngestResponse, error) {
	return c.ingest(ctx, id, "application/octet-stream", EncodeEventsBinary(values))
}

// IngestNDJSON posts a pre-rendered ndjson payload (one bare integer or
// one JSON array of integers per line).
func (c *Client) IngestNDJSON(ctx context.Context, id string, payload []byte) (*IngestResponse, error) {
	return c.ingest(ctx, id, "application/x-ndjson", payload)
}

func (c *Client) ingest(ctx context.Context, id, contentType string, payload []byte) (*IngestResponse, error) {
	var ack IngestResponse
	err := c.retry(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.streamURL(id, "events"), bytes.NewReader(payload))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", contentType)
		resp, err := c.do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		return json.NewDecoder(resp.Body).Decode(&ack)
	})
	if err != nil {
		return nil, err
	}
	return &ack, nil
}

// StreamTest snapshots the stream's live window and runs the tester
// over it, returning the verdict.
func (c *Client) StreamTest(ctx context.Context, id string, req StreamTestRequest) (*StreamTestResponse, error) {
	var res StreamTestResponse
	if err := c.postRetry(ctx, fmt.Sprintf("/v1/streams/%s/test", url.PathEscape(id)), req, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// streamURL renders /v1/streams/{id}[/suffix].
func (c *Client) streamURL(id, suffix string) string {
	u := c.BaseURL + "/v1/streams/" + url.PathEscape(id)
	if suffix != "" {
		u += "/" + suffix
	}
	return u
}

// do performs one prepared request attempt under the client's error
// decoding: non-2xx responses surface as *APIError (feeding the retry
// policy's Temporary check).
func (c *Client) do(req *http.Request) (*http.Response, error) {
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
