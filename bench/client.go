package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"oasis/internal/server"
	"oasis/internal/session"
)

// client is one closed-loop connection to the service: a single kept-alive
// TCP connection and reusable encode/decode buffers. It is not safe for
// concurrent use; each load goroutine owns one.
type client struct {
	base string
	hc   *http.Client

	// Set in the traced run only: every request becomes a client span, the
	// child of the round trip in progress (trip, 0 for none), and carries
	// the session it acts on.
	tr        *tracer
	trip      uint64
	tripStart time.Time
	sess      string

	body  []byte
	frame []byte
	pr    server.ProposeResponse
	lreq  server.LabelsRequest
	lresp server.LabelsResponse
}

func newClient(addr string) *client {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	// A stuck request fails within seconds, so a run ends in bounded time
	// even against a hung server.
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: 10 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// beginTrip and endTrip bracket one round trip of the traced run; both are
// no-ops otherwise.
func (c *client) beginTrip() {
	if c.tr != nil {
		c.trip, c.tripStart = c.tr.newID(), time.Now()
	}
}

func (c *client) endTrip(name string) {
	if c.tr != nil && c.trip != 0 {
		c.tr.record(span{ID: c.trip, Trace: c.trip, Layer: "client", Name: name, Start: c.tripStart, End: time.Now()})
		c.trip = 0
	}
}

// do sends one request and reads the whole response body into c.body, which
// stays valid until the next call. A status other than want is an error.
func (c *client) do(method, path, ctype, accept string, body []byte, want ...int) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if c.tr != nil {
		s := span{ID: c.tr.newID(), Parent: c.trip, Trace: c.trip, Layer: "client", Name: "client." + routeName(method, path)}
		if s.Trace == 0 {
			s.Trace = s.ID
		}
		req.Header.Set(hdrTrace, strconv.FormatUint(s.Trace, 10))
		req.Header.Set(hdrSpan, strconv.FormatUint(s.ID, 10))
		req.Header.Set(hdrSession, c.sess)
		s.Start = time.Now()
		defer func() {
			s.End = time.Now()
			c.tr.record(s)
		}()
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf := bytes.NewBuffer(c.body[:0])
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	c.body = buf.Bytes()
	for _, w := range want {
		if resp.StatusCode == w {
			return resp.StatusCode, c.body, nil
		}
	}
	return resp.StatusCode, c.body, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(c.body))
}

// propose leases up to n pairs of session id, over the binary protocol or
// JSON. The returned slice is reused by the next call.
func (c *client) propose(id string, n int, binary bool) ([]session.Proposal, bool, error) {
	c.sess = id
	path := "/v1/sessions/" + id + "/propose?n=" + strconv.Itoa(n)
	if binary {
		_, body, err := c.do(http.MethodGet, path, "", server.ContentTypeBinary, nil, http.StatusOK)
		if err != nil {
			return nil, false, err
		}
		if err := server.DecodeProposeResponse(body, &c.pr); err != nil {
			return nil, false, err
		}
		return c.pr.Proposals, c.pr.Exhausted, nil
	}
	_, body, err := c.do(http.MethodGet, path, "", "", nil, http.StatusOK)
	if err != nil {
		return nil, false, err
	}
	c.pr = server.ProposeResponse{}
	if err := json.Unmarshal(body, &c.pr); err != nil {
		return nil, false, err
	}
	return c.pr.Proposals, c.pr.Exhausted, nil
}

// labels commits one label per proposal, answered from truth, and returns
// how many the server committed and how many came back duplicate or expired.
func (c *client) labels(id string, props []session.Proposal, truth []bool, binary bool) (committed, rejected int, err error) {
	c.sess = id
	c.lreq.Labels = c.lreq.Labels[:0]
	for _, p := range props {
		c.lreq.Labels = append(c.lreq.Labels, server.Label{Pair: p.Pair, Label: truth[p.Pair]})
	}
	path := "/v1/sessions/" + id + "/labels"
	if binary {
		c.frame = server.AppendLabelsRequest(c.frame[:0], &c.lreq)
		_, body, err := c.do(http.MethodPost, path, server.ContentTypeBinary, server.ContentTypeBinary, c.frame, http.StatusOK)
		if err != nil {
			return 0, 0, err
		}
		if err := server.DecodeLabelsResponse(body, &c.lresp); err != nil {
			return 0, 0, err
		}
	} else {
		req, err := json.Marshal(&c.lreq)
		if err != nil {
			return 0, 0, err
		}
		_, body, err := c.do(http.MethodPost, path, "application/json", "", req, http.StatusOK)
		if err != nil {
			return 0, 0, err
		}
		c.lresp = server.LabelsResponse{}
		if err := json.Unmarshal(body, &c.lresp); err != nil {
			return 0, 0, err
		}
	}
	for _, r := range c.lresp.Results {
		if r.Status != "ok" {
			rejected++
		}
	}
	if len(c.lresp.Results) != len(props) {
		rejected += len(props) - len(c.lresp.Results)
	}
	return c.lresp.Committed, rejected, nil
}

// estimate reads a session's status; the binary form carries the estimate's
// exact bits.
func (c *client) estimate(id string, binary bool) (session.Status, error) {
	var st session.Status
	c.sess = id
	path := "/v1/sessions/" + id + "/estimate"
	if binary {
		_, body, err := c.do(http.MethodGet, path, "", server.ContentTypeBinary, nil, http.StatusOK)
		if err != nil {
			return st, err
		}
		return st, server.DecodeEstimateResponse(body, &st)
	}
	_, body, err := c.do(http.MethodGet, path, "", "", nil, http.StatusOK)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

func (c *client) create(cfg session.Config) error {
	c.sess = cfg.ID
	body, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	_, _, err = c.do(http.MethodPost, "/v1/sessions", "application/json", "", body, http.StatusCreated)
	return err
}

func (c *client) remove(id string) error {
	c.sess = id
	_, _, err := c.do(http.MethodDelete, "/v1/sessions/"+id, "", "", nil, http.StatusNoContent)
	return err
}

// uploadPool stores an encoded pool and returns its content address.
func (c *client) uploadPool(encoded []byte) (string, error) {
	c.sess = ""
	_, body, err := c.do(http.MethodPost, "/v1/pools", "application/octet-stream", "", encoded, http.StatusOK, http.StatusCreated)
	if err != nil {
		return "", err
	}
	var pr server.PoolResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		return "", err
	}
	return pr.PoolID, nil
}

func (c *client) stats() (server.StatsResponse, error) {
	var st server.StatsResponse
	c.sess = ""
	_, body, err := c.do(http.MethodGet, "/v1/stats", "", "", nil, http.StatusOK)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

func (c *client) scrape() error {
	c.sess = ""
	_, _, err := c.do(http.MethodGet, "/metrics", "", "", nil, http.StatusOK)
	return err
}

// waitHealthy polls /healthz until it answers 200.
func (c *client) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		_, _, err := c.do(http.MethodGet, "/healthz", "", "", nil, http.StatusOK)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("healthz: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}
