package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/bench/gen"
)

// conn is one keep-alive connection to the daemon: a client goroutine
// owns exactly one, so the number of clients is the number of
// connections.
type conn struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer // response body of the last post, reused
	// lastEpoch is the highest epoch this connection has been answered
	// from; epochs must never go back.
	lastEpoch uint64
	// checked counts reads, to full-check one in fullCheckEvery.
	checked int
}

// fullCheckEvery is the sampling rate of the order-insensitive
// tuple-set check; every response gets the cheap checks. The driver
// shares the box's two cores with the daemon, so decoding every 1 MB
// body would measure the driver.
const fullCheckEvery = 64

func newConn(base string) *conn {
	return &conn{base: base, hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		},
	}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// post sends one request and leaves the response body in c.buf.
func (c *conn) post(path, contentType string, body []byte) (status int, err error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// send posts op and leaves the reply in c.buf; check then judges it.
// They are separate so that a latency clock can stop between the two.
func (c *conn) send(op *gen.Op) error {
	status, err := c.post(op.Path, "application/json", op.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", op.Kind, op.Path, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", op.Kind, op.Path, status, clip(c.buf.Bytes()))
	}
	return nil
}

// check verifies the reply to op against op.Want; a nil error means the
// operation counts as correct. full forces the tuple-set check.
func (c *conn) check(op *gen.Op, full bool) error {
	body := c.buf.Bytes()
	epoch, err := leadingEpoch(body)
	if err != nil {
		return fmt.Errorf("%s %s: %w: %s", op.Kind, op.Path, err, clip(body))
	}
	if epoch < c.lastEpoch || (op.Write && epoch == c.lastEpoch) {
		return fmt.Errorf("%s %s: epoch went from %d to %d", op.Kind, op.Path, c.lastEpoch, epoch)
	}
	c.lastEpoch = epoch
	if op.Write {
		return checkWrite(op, body)
	}
	c.checked++
	return checkRead(op, body, full || c.checked%fullCheckEvery == 0)
}

// do is send then check.
func (c *conn) do(op *gen.Op, full bool) error {
	if err := c.send(op); err != nil {
		return err
	}
	return c.check(op, full)
}

// leadingEpoch reads N from a body starting `{"epoch":N`, the shape of
// every 200 the daemon's data endpoints send.
func leadingEpoch(body []byte) (uint64, error) {
	rest, ok := bytes.CutPrefix(body, []byte(`{"epoch":`))
	if !ok {
		return 0, fmt.Errorf("reply does not start with an epoch")
	}
	n := 0
	for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
		n++
	}
	return strconv.ParseUint(string(rest[:n]), 10, 64)
}

func checkWrite(op *gen.Op, body []byte) error {
	if op.Kind != "load" {
		return nil // {"epoch":N}; the epoch check is the whole check
	}
	var r struct {
		Facts int `json:"facts"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("load: %w: %s", err, clip(body))
	}
	if r.Facts != op.Want.Rows {
		return fmt.Errorf("load: materialized %d facts, oracle has %d", r.Facts, op.Want.Rows)
	}
	return nil
}

// checkRead verifies a /query reply. The cheap part — complete JSON
// object, row count, truncation flag — scans bytes: constants never
// contain brackets, so every ']' but the last closes one answer row.
func checkRead(op *gen.Op, body []byte, full bool) error {
	if !bytes.HasSuffix(body, []byte("}\n")) {
		return fmt.Errorf("%s: reply cut short: …%s", op.Kind, clip(body[max(0, len(body)-80):]))
	}
	if op.Want.Rows < 0 {
		return nil
	}
	if rows := bytes.Count(body, []byte("]")) - 1; rows != op.Want.Rows {
		return fmt.Errorf("%s: %d rows, oracle has %d", op.Kind, rows, op.Want.Rows)
	}
	tail := body[max(0, len(body)-32):]
	if trunc := bytes.Contains(tail, []byte(`"truncated":true`)); trunc != op.Want.Truncated {
		return fmt.Errorf("%s: truncated=%v, oracle says %v", op.Kind, trunc, op.Want.Truncated)
	}
	if !full {
		return nil
	}
	var r struct {
		Tuples [][]string `json:"tuples"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("%s: %w", op.Kind, err)
	}
	if !op.Want.Truncated {
		if h := gen.AnswerHash(r.Tuples); h != op.Want.Hash {
			return fmt.Errorf("%s: answer set hash %x, oracle has %x", op.Kind, h, op.Want.Hash)
		}
		return nil
	}
	seen := make(map[uint64]struct{}, len(r.Tuples))
	for _, t := range r.Tuples {
		h := gen.TupleHash(t)
		if _, ok := op.Want.Within[h]; !ok {
			return fmt.Errorf("%s: answer %v is not in the oracle's answer set", op.Kind, t)
		}
		if _, dup := seen[h]; dup {
			return fmt.Errorf("%s: answer %v returned twice", op.Kind, t)
		}
		seen[h] = struct{}{}
	}
	return nil
}

func clip(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "…"
	}
	return string(bytes.TrimSpace(b))
}
