package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func testServer(t *testing.T) (*Scheduler, *httptest.Server) {
	t.Helper()
	s := testSched(t, Options{Workers: 1})
	ts := httptest.NewServer(NewServer(s))
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func submitHTTP(t *testing.T, base, body string) Status {
	t.Helper()
	resp, data := postJSON(t, base+"/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	var st Status
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("submit response: %v: %s", err, data)
	}
	return st
}

// waitState polls the scheduler directly until the job reaches want (or a
// terminal state, which fails the wait if it is not the wanted one).
func waitState(t *testing.T, s *Scheduler, id string, want State, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s unknown while waiting for %s", id, want)
		}
		st := j.State()
		if st == want {
			return
		}
		if st.Terminal() {
			t.Fatalf("job %s reached %s while waiting for %s", id, st, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s not %s within %v", id, want, timeout)
}

func pollDone(t *testing.T, base, id string, timeout time.Duration) Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, data := getBody(t, base+"/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %s: %d: %s", id, resp.StatusCode, data)
		}
		var st Status
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s not terminal within %v", id, timeout)
	return Status{}
}

func TestHTTPSubmitPollResult(t *testing.T) {
	_, ts := testServer(t)
	st := submitHTTP(t, ts.URL, `{"chip":{"NumCells":500,"Seed":2}}`)
	if st.ID == "" || st.State == "" {
		t.Fatalf("submit status: %+v", st)
	}
	final := pollDone(t, ts.URL, st.ID, 60*time.Second)
	if final.State != StateDone {
		t.Fatalf("final state: %s (%s)", final.State, final.Error)
	}

	resp, data := getBody(t, ts.URL+"/jobs/"+st.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d: %s", resp.StatusCode, data)
	}
	var res resultJSON
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.X) == 0 || res.HPWL <= 0 || len(res.X) != len(res.Y) {
		t.Fatalf("implausible result: HPWL %g, %d/%d positions", res.HPWL, len(res.X), len(res.Y))
	}

	// Hex dump: one "xbits ybits" line per cell, parseable and complete.
	resp, hex := getBody(t, ts.URL+"/jobs/"+st.ID+"/result?format=hex")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hex result: %d", resp.StatusCode)
	}
	lines := bytes.Count(hex, []byte("\n"))
	if lines != len(res.X) {
		t.Fatalf("hex dump: %d lines for %d cells", lines, len(res.X))
	}

	// SVG render of the finished placement.
	resp, svg := getBody(t, ts.URL+"/jobs/"+st.ID+"/svg")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(svg, []byte("<svg")) {
		t.Fatalf("svg: %d, body starts %.40q", resp.StatusCode, svg)
	}

	// Job listing includes it.
	resp, data = getBody(t, ts.URL+"/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d", resp.StatusCode)
	}
	var list []Status
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list: %+v", list)
	}
}

func TestHTTPEventsJSONL(t *testing.T) {
	_, ts := testServer(t)
	st := submitHTTP(t, ts.URL, `{"chip":{"NumCells":500,"Seed":3}}`)
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/events?format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", resp.StatusCode)
	}
	// The stream ends when the job reaches a terminal state; collect it
	// all and check the event shapes.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var states []string
	levels := 0
	for sc.Scan() {
		var e struct {
			Type string `json:"type"`
			Name string `json:"name"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		if e.Type == "state" {
			states = append(states, e.Name)
		}
		if e.Type == "span" && e.Name == "level" {
			levels++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(states) == 0 || states[len(states)-1] != string(StateDone) {
		t.Fatalf("state events: %v, want trailing done", states)
	}
	if levels == 0 {
		t.Fatal("no per-level progress events streamed")
	}
}

func TestHTTPEventsSSE(t *testing.T) {
	_, ts := testServer(t)
	st := submitHTTP(t, ts.URL, `{"chip":{"NumCells":300,"Seed":4}}`)
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type: %s", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte("event: state\n")) || !bytes.Contains(body, []byte("data: {")) {
		t.Fatalf("not SSE-framed: %.120q", body)
	}
}

func TestHTTPCancelAndErrors(t *testing.T) {
	_, ts := testServer(t)
	// Occupy the worker, then cancel a queued job over HTTP.
	filler := submitHTTP(t, ts.URL, `{"chip":{"NumCells":2000,"Seed":5},"priority":9,"knobs":{"max_levels":4}}`)
	queued := submitHTTP(t, ts.URL, `{"chip":{"NumCells":400,"Seed":6}}`)
	resp, data := postJSON(t, ts.URL+"/jobs/"+queued.ID+"/cancel", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d: %s", resp.StatusCode, data)
	}
	if st := pollDone(t, ts.URL, queued.ID, 10*time.Second); st.State != StateCanceled {
		t.Fatalf("canceled job state: %s", st.State)
	}
	// Result of a canceled job: 409, not 200/202.
	resp, _ = getBody(t, ts.URL+"/jobs/"+queued.ID+"/result")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("canceled result: %d, want 409", resp.StatusCode)
	}
	// Unknown job: 404. Bad spec: 400.
	if resp, _ := getBody(t, ts.URL+"/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/jobs", `{"knobs":{"mode":"annealing"},"chip":{"NumCells":10}}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad mode: %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/jobs", `{"bogus_field":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %d, want 400", resp.StatusCode)
	}
	pollDone(t, ts.URL, filler.ID, 120*time.Second)
}

func TestHTTPStatsAndHealth(t *testing.T) {
	_, ts := testServer(t)
	st := submitHTTP(t, ts.URL, `{"chip":{"NumCells":300,"Seed":7}}`)
	pollDone(t, ts.URL, st.ID, 60*time.Second)
	// Duplicate submission must show up as a cache hit in /stats.
	dup := submitHTTP(t, ts.URL, `{"chip":{"NumCells":300,"Seed":7}}`)
	if fin := pollDone(t, ts.URL, dup.ID, 10*time.Second); !fin.Cached {
		t.Fatalf("duplicate not served from cache: %+v", fin)
	}
	resp, data := getBody(t, ts.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var stats Stats
	if err := json.Unmarshal(data, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Counters["serve.cache.hits"] != 1 || stats.Counters["serve.placements"] != 1 {
		t.Fatalf("stats counters: hits=%g placements=%g, want 1 and 1 (dup served from cache)",
			stats.Counters["serve.cache.hits"], stats.Counters["serve.placements"])
	}
	if stats.Jobs[string(StateDone)] != 2 || stats.CacheEntries != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	if resp, body := getBody(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK || !bytes.HasPrefix(body, []byte("ok")) {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
}

func TestHTTPResultBeforeDone(t *testing.T) {
	_, ts := testServer(t)
	filler := submitHTTP(t, ts.URL, `{"chip":{"NumCells":2000,"Seed":8},"knobs":{"max_levels":4}}`)
	resp, data := getBody(t, ts.URL+"/jobs/"+filler.ID+"/result")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("early result fetch: %d (%s), want 202 retry-later", resp.StatusCode, data)
	}
	ae := decodeEnvelope(t, data)
	if ae.Code != "pending" || ae.Reason == "" || ae.RetryAfterS <= 0 {
		t.Fatalf("202 envelope: %+v", ae)
	}
	assertRetryShape(t, resp, ae.RetryAfterS)
	pollDone(t, ts.URL, filler.ID, 120*time.Second)
}

// decodeEnvelope asserts the one structured error shape every handler
// returns: {code, reason, retry_after_s?} and nothing else.
func decodeEnvelope(t *testing.T, data []byte) apiError {
	t.Helper()
	var ae apiError
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ae); err != nil {
		t.Fatalf("error envelope: %v %q", err, data)
	}
	if ae.Code == "" || ae.Reason == "" {
		t.Fatalf("envelope missing code or reason: %q", data)
	}
	return ae
}

// assertRetryShape pins the wire contract for every retry hint: the
// Retry-After header is a whole number of seconds, at least 1, and the
// JSON body's retry_after_s quotes exactly the same figure — a client
// reading either must see one retry window, not two.
func assertRetryShape(t *testing.T, resp *http.Response, bodyS float64) {
	t.Helper()
	h := resp.Header.Get("Retry-After")
	if h == "" {
		t.Fatalf("%d response without a Retry-After header", resp.StatusCode)
	}
	secs, err := strconv.ParseInt(h, 10, 64)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After header %q, want a whole second count >= 1", h)
	}
	if bodyS != float64(secs) {
		t.Fatalf("body retry_after_s %v != Retry-After header %q", bodyS, h)
	}
}

// Retry hints always round UP to whole seconds: rounding down would
// invite a client back inside the window it was just told to wait out,
// and a sub-second hint must become 1, never a 0 that drops the header.
func TestRetryAfterRounding(t *testing.T) {
	for _, c := range []struct {
		in   time.Duration
		want int64
	}{
		{-time.Second, 0},
		{0, 0},
		{50 * time.Millisecond, 1},
		{time.Second, 1},
		{1001 * time.Millisecond, 2},
		{2500 * time.Millisecond, 3},
	} {
		if got := retryAfterSeconds(c.in); got != c.want {
			t.Fatalf("retryAfterSeconds(%v) = %d, want %d", c.in, got, c.want)
		}
	}
	rec := httptest.NewRecorder()
	writeErrorRetry(rec, http.StatusTooManyRequests, "queue_full", errors.New("full"), 50*time.Millisecond)
	resp := rec.Result()
	ae := decodeEnvelope(t, rec.Body.Bytes())
	assertRetryShape(t, resp, ae.RetryAfterS)
	if h := resp.Header.Get("Retry-After"); h != "1" {
		t.Fatalf("sub-second hint: header %q, want \"1\"", h)
	}
}

// TestHTTPErrorEnvelope walks every error-producing handler and checks the
// single structured envelope shape (and its stable codes) on each.
func TestHTTPErrorEnvelope(t *testing.T) {
	_, ts := testServer(t)
	cases := []struct {
		name, method, path, body string
		status                   int
		code                     string
	}{
		{"unknown job", "GET", "/jobs/nope", "", http.StatusNotFound, "unknown_job"},
		{"unknown job result", "GET", "/jobs/nope/result", "", http.StatusNotFound, "unknown_job"},
		{"unknown job svg", "GET", "/jobs/nope/svg", "", http.StatusNotFound, "unknown_job"},
		{"unknown job cancel", "POST", "/jobs/nope/cancel", "", http.StatusNotFound, "unknown_job"},
		{"bad spec field", "POST", "/jobs", `{"bogus_field":1}`, http.StatusBadRequest, "bad_spec"},
		{"bad spec mode", "POST", "/jobs", `{"knobs":{"mode":"annealing"},"chip":{"NumCells":10}}`, http.StatusBadRequest, "bad_spec"},
		{"removed knob", "POST", "/jobs", `{"knobs":{"no_pair_pass":true}}`, http.StatusBadRequest, "bad_spec"},
	}
	for _, tc := range cases {
		var resp *http.Response
		var data []byte
		if tc.method == "GET" {
			resp, data = getBody(t, ts.URL+tc.path)
		} else {
			resp, data = postJSON(t, ts.URL+tc.path, tc.body)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, data)
			continue
		}
		if ae := decodeEnvelope(t, data); ae.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, ae.Code, tc.code)
		}
	}
}

// TestHTTPReadyzAndAdmission saturates a tiny queue over HTTP: readyz
// flips to 503 with a reason and Retry-After, and the refused submission
// carries the queue_full envelope. healthz stays a pure liveness 200
// throughout.
func TestHTTPReadyzAndAdmission(t *testing.T) {
	s := testSched(t, Options{Workers: 1, QueueLimit: 1, CacheEntries: -1})
	ts := httptest.NewServer(NewServer(s))
	t.Cleanup(ts.Close)

	if resp, data := getBody(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("idle readyz: %d %s", resp.StatusCode, data)
	}

	// One running + one queued fills the QueueLimit=1 queue. Wait for the
	// worker to claim the first job so the second lands in the queue, not
	// in a rejection.
	running := submitHTTP(t, ts.URL, `{"chip":{"NumCells":2000,"Seed":9},"knobs":{"max_levels":4}}`)
	waitState(t, s, running.ID, StateRunning, 30*time.Second)
	queued := submitHTTP(t, ts.URL, `{"chip":{"NumCells":2000,"Seed":10},"knobs":{"max_levels":4}}`)

	resp, data := postJSON(t, ts.URL+"/jobs", `{"chip":{"NumCells":400,"Seed":11}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-bound submit: %d (%s), want 429", resp.StatusCode, data)
	}
	ae := decodeEnvelope(t, data)
	if ae.Code != "queue_full" || ae.RetryAfterS <= 0 {
		t.Fatalf("queue_full envelope: %+v", ae)
	}
	assertRetryShape(t, resp, ae.RetryAfterS)

	resp, data = getBody(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated readyz: %d %s, want 503", resp.StatusCode, data)
	}
	var rd Readiness
	if err := json.Unmarshal(data, &rd); err != nil {
		t.Fatal(err)
	}
	if rd.Ready || rd.Reason != "queue_saturated" {
		t.Fatalf("readiness: %+v", rd)
	}
	assertRetryShape(t, resp, rd.RetryAfterS)

	// Liveness never degrades with load.
	if resp, body := getBody(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK || !bytes.HasPrefix(body, []byte("ok")) {
		t.Fatalf("healthz under saturation: %d %q", resp.StatusCode, body)
	}

	// /stats carries the governance snapshot the operator steers by.
	resp, data = getBody(t, ts.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var stats Stats
	if err := json.Unmarshal(data, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Governance.QueueLimit != 1 || stats.Governance.QueueDepth != 1 ||
		stats.Governance.MemBudgetBytes == 0 || stats.Governance.BrownoutMode == "" {
		t.Fatalf("governance stats: %+v", stats.Governance)
	}

	pollDone(t, ts.URL, running.ID, 120*time.Second)
	pollDone(t, ts.URL, queued.ID, 120*time.Second)
	if resp, _ := getBody(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain readyz: %d, want 200", resp.StatusCode)
	}
}
