package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"net/http"
	"net/http/httptest"
)

// executor issues one call against some depth of the stack: the real daemon
// or an in-process server over loopback, the api handler directly, or the
// predict registry directly (adapter.go). status is the HTTP status (or its
// equivalent at predict depth); err is a transport failure, which aborts the
// run — a dead daemon must fail the command, not be counted call by call.
type executor interface {
	predict(tenant string, sh shape, levels bool) (p prediction, status int, err error)
	batch(items []batchItem) (ps []prediction, status int, err error)
	observe(tenant string, id uint64, actual float64) (status int, err error)
	accuracy(tenant string) (status int, err error)
	advance(tenant string) (status int, err error) // "" advances the whole fleet
	schedule(jobs []jobSpec) (r scheduleResponse, status int, err error)
}

// httpExec speaks the daemon's JSON API over one http.Client — one TCP
// connection when the client came from newConnClient. It hashes every
// response body in call order (the digest two same-seed runs must agree on)
// and counts bytes for the transport metrics.
type httpExec struct {
	client    *http.Client
	base      string
	body      []byte
	resp      bytes.Buffer
	digest    hash.Hash
	reqBytes  int64
	respBytes int64
	calls     int64
}

func newHTTPExec(client *http.Client, base string) *httpExec {
	return &httpExec{client: client, base: base, digest: sha256.New()}
}

// call sends one request and leaves the response body in x.resp. hashed is
// false for bodies that carry wall-clock figures (/metrics, /snapshot).
func (x *httpExec) call(method, path string, body []byte, hashed bool) (int, error) {
	var rd io.Reader // stays a nil interface for a bodiless call
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, x.base+path, rd)
	if err != nil {
		return 0, err
	}
	res, err := x.client.Do(req)
	if err != nil {
		return 0, err
	}
	if err := drain(&x.resp, res.Body); err != nil {
		return 0, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	x.calls++
	x.reqBytes += int64(len(body))
	x.respBytes += int64(x.resp.Len())
	if hashed {
		x.digest.Write(x.resp.Bytes())
	}
	return res.StatusCode, nil
}

func (x *httpExec) predict(tenant string, sh shape, levels bool) (prediction, int, error) {
	x.body = appendPredictBody(x.body[:0], tenant, sh, levels)
	status, err := x.call(http.MethodPost, "/predict", x.body, true)
	var p prediction
	if err != nil || status != http.StatusOK {
		return p, status, err
	}
	if err := json.Unmarshal(x.resp.Bytes(), &p); err != nil {
		return p, 0, nil // a malformed reply is an invalid response, not a dead daemon
	}
	return p, status, nil
}

func (x *httpExec) batch(items []batchItem) ([]prediction, int, error) {
	b := append(x.body[:0], `{"requests":[`...)
	for i, it := range items {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendPredictBody(b, tenantName(it.tenant), shapes[it.shape], it.levels)
	}
	x.body = append(b, "]}"...)
	status, err := x.call(http.MethodPost, "/predict/batch", x.body, true)
	if err != nil || status != http.StatusOK {
		return nil, status, err
	}
	var br batchResponse
	if err := json.Unmarshal(x.resp.Bytes(), &br); err != nil {
		return nil, 0, nil
	}
	return br.Responses, status, nil
}

func (x *httpExec) observe(tenant string, id uint64, actual float64) (int, error) {
	x.body = appendObserveBody(x.body[:0], tenant, id, actual)
	return x.call(http.MethodPost, "/observe", x.body, true)
}

func (x *httpExec) accuracy(tenant string) (int, error) {
	return x.call(http.MethodGet, "/accuracy?platform="+tenant, nil, true)
}

func (x *httpExec) advance(tenant string) (int, error) {
	x.body = appendAdvanceBody(x.body[:0], tenant, advanceSeconds)
	return x.call(http.MethodPost, "/advance", x.body, true)
}

func (x *httpExec) schedule(jobs []jobSpec) (scheduleResponse, int, error) {
	var r scheduleResponse
	body, err := json.Marshal(scheduleRequest{Jobs: jobs})
	if err != nil {
		return r, 0, err
	}
	status, err := x.call(http.MethodPost, "/schedule", body, true)
	if err != nil || status != http.StatusOK {
		return r, status, err
	}
	if err := json.Unmarshal(x.resp.Bytes(), &r); err != nil {
		return r, 0, nil
	}
	return r, status, nil
}

// snapshot fetches POST /snapshot and returns the image.
func (x *httpExec) snapshot() ([]byte, int, error) {
	status, err := x.call(http.MethodPost, "/snapshot", nil, false)
	if err != nil {
		return nil, 0, err
	}
	return append([]byte(nil), x.resp.Bytes()...), status, nil
}

// metricsText fetches GET /metrics.
func (x *httpExec) metricsText() (string, int, error) {
	status, err := x.call(http.MethodGet, "/metrics", nil, false)
	return x.resp.String(), status, err
}

// handlerTransport serves requests by calling an http.Handler directly on
// a recorder: the handler-direct depth, and the in-process stack the smoke
// test drives. No socket, no server goroutine.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}
