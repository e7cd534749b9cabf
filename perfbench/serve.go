package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The serve-mixed schedule. The run is an open loop: every operation has a
// due time fixed in advance, and is sent then (or as soon as the one before
// it returns) whatever the server's state. The overload rate is about twice
// what the server completes: it admits a query and does most of its work
// before answering the submit, so one sending connection carries about 100
// submits/s on a 2-core machine, and the sender falls behind. A submit the
// sender reaches more than half the goodput limit after its due time is
// not sent and counts as missed (shed), which bounds the backlog: the
// queries that are sent can still meet the limit, and wall.goodput_qps
// reads the server's throughput at saturation.
//
// The nominal rate is low enough that queries and writes do not overlap on
// the server even when the host runs at half speed. Overlapping requests
// share or revive engine work, so the session's virtual clock, which the
// end-to-end figures read in this phase, would depend on the host's speed:
// at 20 submits/s the same seed's virtual clock at the end of the phase
// varied by 25% from run to run, at 10/s by under 1%.
const (
	nominalShare = 0.75 // share of the run at the nominal query rate
	nominalQPS   = 10
	overloadQPS  = 200
	readShare    = 0.6 // share of each second given to query submits
	cancelEvery  = 10  // every n-th query is cancelled

	maxGenLag  = 100 * time.Millisecond // generator send lag p99 beyond which a run is invalid
	drainLimit = 60 * time.Second       // how long streams may stay open after the schedule
)

// serveSize is what the smoke mode scales down.
type serveSize struct {
	rows   int // caqe-serve -n; its default dataset otherwise
	setups int // server starts timed for setup_s
}

func serveSizeFor(smoke bool) serveSize {
	if smoke {
		return serveSize{rows: 400, setups: 2}
	}
	return serveSize{rows: 2000, setups: 11}
}

type opKind int

const (
	opSubmit opKind = iota
	opCancel
	opAppendR
	opAppendT
	opDelete
	opStats // GET /stats when the overload phase begins
)

// schedOp is one scheduled operation.
type schedOp struct {
	at    time.Duration // due time from the start of the schedule
	kind  opKind
	over  bool      // due in the overload phase
	query *queryRec // submit and cancel
	body  []byte    // request body (submit, appends)
	row   int       // delete: R row id
}

// queryRec is one query's life as the client saw it.
type queryRec struct {
	due, sent time.Time
	overload  bool
	id        int // server query id once accepted
	accepted  bool

	firstAt, doneAt time.Time
	state           string
	rows, lags      int

	// Virtual seconds on the session's clock: at admission, and at the
	// first and the last result streamed.
	arrival, firstV, lastV float64
}

// serveRun holds one serve-mixed run's measurements.
type serveRun struct {
	cfg  config
	size serveSize
	out  *outcome
	base string

	mu      sync.Mutex // guards open and backlog, shared with the stream reader
	open    int
	backlog int

	queries                  []*queryRec
	submitLat, cancelLat     []float64 // send to acknowledgement
	mutationLat              []float64 // nominal phase, due time to acknowledgement
	deleteLat                []float64 // the same, single-row deletes only
	genLag                   []float64
	rejected429, rejected503 int
	refused, shed            int
	nominalEnd               float64 // the session's virtual clock when the overload phase began
	rowsStreamed, lagNotices int
}

func runServe(cfg config) (*outcome, error) {
	if cfg.serveBin == "" {
		return nil, errors.New("serve-mixed needs --serve-bin")
	}
	sr := &serveRun{cfg: cfg, size: serveSizeFor(cfg.smoke), out: newOutcome()}

	// Set-up: time several server starts, keep the last one running.
	var setups []float64
	var srv *server
	for i := 0; i < sr.size.setups; i++ {
		s, took, err := startServer(cfg.serveBin, sr.size.rows)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < sr.size.setups-1 {
			if _, err := s.stop(); err != nil {
				return nil, err
			}
			continue
		}
		srv = s
	}
	sr.base = srv.base
	runErr := sr.drive(buildSchedule(cfg.seed, sr.size.rows, cfg.budget, &sr.queries))
	var stats statsDoc
	var prom map[string]float64
	if runErr == nil {
		stats, prom, runErr = sr.scrape()
	}
	rss, stopErr := srv.stop()
	if runErr != nil {
		return nil, runErr
	}
	if stopErr != nil {
		return nil, stopErr
	}
	sr.report(median(setups), rss, stats, prom)
	return sr.out, nil
}

// server is one caqe-serve child process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

// startServer launches caqe-serve on a free local port and waits for
// /healthz to answer 200, returning the time that took.
func startServer(bin string, rows int) (*server, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(bin, "-role", "server", "-addr", addr, "-n", strconv.Itoa(rows))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting caqe-serve: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is read from ProcessState after done closes
		close(s.done)
	}()
	client := &http.Client{Timeout: time.Second}
	for time.Since(start) < 30*time.Second {
		select {
		case <-s.done:
			return nil, 0, fmt.Errorf("caqe-serve exited during start-up: %v", cmd.ProcessState)
		default:
		}
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		time.Sleep(200 * time.Microsecond) // fine enough not to round the few-millisecond start-up time
	}
	s.stop()
	return nil, 0, errors.New("caqe-serve did not become healthy within 30s")
}

// stop asks the server to drain and exit, kills it if it does not within
// 30 s, and returns its peak resident set size in MiB.
func (s *server) stop() (float64, error) {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return 0, errors.New("caqe-serve did not exit within 30s of SIGTERM")
	}
	return childPeakRSSMB(s.cmd.ProcessState), nil
}

// writePlan is each second's writes, as offsets into its write window.
var writePlan = []struct {
	offset time.Duration
	kind   opKind
}{
	{0, opAppendR}, {10 * time.Millisecond, opAppendT}, {20 * time.Millisecond, opAppendR}, {30 * time.Millisecond, opDelete},
}

// buildSchedule lays out the run's operations. Timing is fixed and
// repeats every second: query submits at even intervals through the read
// window (the first readShare of the second), then the writes of
// writePlan: appends to R, T and R again and a single-row R delete.
// Queries arrive at the
// nominal rate for the first nominalShare of the run and at the overload
// rate after it; every tenth query is cancelled right after its submit.
// Writes get their own window because a delete holds the server for far
// longer than a query does, and the one sending connection would queue
// every read due meanwhile behind it. The seed draws the contents: each
// query's join condition, preference, priority and contract, the appended
// rows and the deleted row ids. The query records are appended to qs.
func buildSchedule(seed int64, rows int, budget time.Duration, qs *[]*queryRec) []schedOp {
	rng := rand.New(rand.NewSource(seed))
	secs := int(budget / time.Second)
	nominal := int(float64(secs)*nominalShare + 0.5)
	deletable := rng.Perm(rows)
	var ops []schedOp
	n := 0
	for sec := 0; sec < secs; sec++ {
		base := time.Duration(sec) * time.Second
		over := sec >= nominal
		rate := nominalQPS
		if over {
			rate = overloadQPS
		}
		if sec == nominal {
			ops = append(ops, schedOp{at: base, kind: opStats})
		}
		step := time.Duration(readShare * float64(time.Second) / float64(rate))
		for i := 0; i < rate; i++ {
			at := base + time.Duration(i)*step
			q := &queryRec{overload: over}
			*qs = append(*qs, q)
			ops = append(ops, schedOp{at: at, kind: opSubmit, over: over, query: q, body: querySpec(rng)})
			if n++; n%cancelEvery == 0 {
				ops = append(ops, schedOp{at: at + time.Millisecond, kind: opCancel, over: over, query: q})
			}
		}
		writes := base + time.Duration(readShare*float64(time.Second))
		for _, w := range writePlan {
			op := schedOp{at: writes + w.offset, kind: w.kind, over: over}
			if w.kind == opDelete {
				op.row, deletable = deletable[0], deletable[1:]
			} else {
				op.body = appendBody(rng)
			}
			ops = append(ops, op)
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	return ops
}

// querySpec draws one query: either join condition, a skyline over two to
// four of the four output dimensions, and a contract from the five classes.
func querySpec(rng *rand.Rand) []byte {
	dims := rng.Perm(4)[:2+rng.Intn(3)]
	var contract map[string]any
	switch rng.Intn(5) {
	case 0:
		contract = map[string]any{"class": "deadline", "deadline": 200}
	case 1:
		contract = map[string]any{"class": "logdecay"}
	case 2:
		contract = map[string]any{"class": "softdeadline", "deadline": 200}
	case 3:
		contract = map[string]any{"class": "ratequota", "frac": 0.1, "interval": 20}
	default:
		contract = map[string]any{"class": "hybrid", "frac": 0.1, "interval": 20}
	}
	b, _ := json.Marshal(map[string]any{
		"jc": rng.Intn(2), "pref": dims, "priority": 0.1 + 0.9*rng.Float64(), "contract": contract,
	})
	return b
}

// appendBody draws one to three rows shaped like the server's default
// relations: four attributes in [0,1) and two join keys in the key domain
// of its default selectivity 0.01.
func appendBody(rng *rand.Rand) []byte {
	type row struct {
		Attrs []float64 `json:"attrs"`
		Keys  []int64   `json:"keys"`
	}
	rows := make([]row, 1+rng.Intn(3))
	for i := range rows {
		rows[i] = row{
			Attrs: []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()},
			Keys:  []int64{rng.Int63n(100), rng.Int63n(100)},
		}
	}
	b, _ := json.Marshal(map[string]any{"rows": rows})
	return b
}

// drive sends the schedule over one connection while a second connection
// reads the accepted queries' result streams in submission order.
func (sr *serveRun) drive(ops []schedOp) error {
	sender := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	reader := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	defer sender.CloseIdleConnections()
	defer reader.CloseIdleConnections()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	accepted := make(chan *queryRec, len(sr.queries)) // one slot per possible submit: the sender never blocks
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for q := range accepted {
			if err := sr.readStream(ctx, reader, q); err != nil {
				sr.out.problem("query %d stream: %v", q.id, err)
			}
		}
	}()

	start := time.Now()
	var prevAck time.Time
	for i := range ops {
		op := &ops[i]
		due := start.Add(op.at)
		if op.kind == opCancel && !op.query.accepted {
			continue // its submit was refused or shed
		}
		if op.kind == opSubmit && time.Since(due) > sr.cfg.limit/2 {
			sr.shed++
			continue
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		// Lateness the generator caused itself: past the due time and past
		// the previous response, which the single connection waits for.
		ready := due
		if prevAck.After(ready) {
			ready = prevAck
		}
		sr.genLag = append(sr.genLag, sent.Sub(ready).Seconds())
		if op.kind == opSubmit {
			op.query.due, op.query.sent = due, sent
			sr.mu.Lock()
			if sr.open > sr.backlog {
				sr.backlog = sr.open
			}
			sr.mu.Unlock()
		}
		status, body, err := sr.send(sender, op)
		prevAck = time.Now()
		sr.out.attempted++
		if err != nil {
			sr.out.failed++
			sr.out.problem("%s: %v", opName(op.kind), err)
			continue
		}
		sr.account(op, status, body, sent, due, prevAck, accepted)
	}
	close(accepted)
	select {
	case <-readerDone:
	case <-time.After(drainLimit):
		cancel()
		<-readerDone
		return fmt.Errorf("result streams still open %v after the schedule ended", drainLimit)
	}
	return nil
}

func opName(k opKind) string {
	return [...]string{"submit", "cancel", "append-r", "append-t", "delete-r", "stats"}[k]
}

// send issues one operation and returns the status and response body.
func (sr *serveRun) send(c *http.Client, op *schedOp) (int, []byte, error) {
	var req *http.Request
	var err error
	switch op.kind {
	case opSubmit:
		req, err = http.NewRequest(http.MethodPost, sr.base+"/queries", bytes.NewReader(op.body))
	case opCancel:
		req, err = http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/queries/%d", sr.base, op.query.id), nil)
	case opAppendR:
		req, err = http.NewRequest(http.MethodPost, sr.base+"/data/r", bytes.NewReader(op.body))
	case opAppendT:
		req, err = http.NewRequest(http.MethodPost, sr.base+"/data/t", bytes.NewReader(op.body))
	case opDelete:
		req, err = http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/data/r/%d", sr.base, op.row), nil)
	case opStats:
		req, err = http.NewRequest(http.MethodGet, sr.base+"/stats", nil)
	}
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// account classifies one response: success, refusal (429, 503 and 409
// are the server's admission and load-shedding answers) or failure.
func (sr *serveRun) account(op *schedOp, status int, body []byte, sent, due, ack time.Time, accepted chan<- *queryRec) {
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusConflict:
		if op.kind != opSubmit {
			sr.out.failed++
			sr.out.problem("%s refused with %d: %s", opName(op.kind), status, bytes.TrimSpace(body))
			return
		}
		sr.refused++
		switch status {
		case http.StatusTooManyRequests:
			sr.rejected429++
		case http.StatusServiceUnavailable:
			sr.rejected503++
		}
		return
	}
	want := http.StatusOK
	switch op.kind {
	case opSubmit:
		want = http.StatusCreated
	case opCancel:
		want = http.StatusNoContent
	}
	if status != want {
		sr.out.failed++
		sr.out.problem("%s answered %d, want %d: %s", opName(op.kind), status, want, bytes.TrimSpace(body))
		return
	}
	switch op.kind {
	case opSubmit:
		var r struct {
			ID      int     `json:"id"`
			Arrival float64 `json:"arrival"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			sr.out.failed++
			sr.out.problem("submit response: %v", err)
			return
		}
		sr.submitLat = append(sr.submitLat, ack.Sub(sent).Seconds())
		op.query.id, op.query.accepted, op.query.arrival = r.ID, true, r.Arrival
		sr.mu.Lock()
		sr.open++
		sr.mu.Unlock()
		accepted <- op.query
	case opCancel:
		sr.cancelLat = append(sr.cancelLat, ack.Sub(sent).Seconds())
	case opStats:
		var st statsDoc
		if err := json.Unmarshal(body, &st); err != nil {
			sr.out.failed++
			sr.out.problem("stats response: %v", err)
			return
		}
		sr.nominalEnd = st.Now
	default:
		// Writes are timed in the nominal phase only: in the overload
		// phase the sender is behind, and a write's wait would be the
		// generator's queue rather than the server.
		if op.over {
			return
		}
		sr.mutationLat = append(sr.mutationLat, ack.Sub(due).Seconds())
		if op.kind == opDelete {
			sr.deleteLat = append(sr.deleteLat, ack.Sub(due).Seconds())
		}
	}
}

// streamLine is any record of an NDJSON result stream: an emission, a lag
// notice or the closing done record.
type streamLine struct {
	RID, TID int
	Time     float64 // virtual seconds at delivery
	Lag      int64   `json:"lag"`
	Done     *bool   `json:"done"`
	State    string  `json:"state"`
	Reason   string  `json:"reason"`
}

// readStream reads one query's result stream to its end, checking that it
// closes with a done record and never repeats a result.
func (sr *serveRun) readStream(ctx context.Context, c *http.Client, q *queryRec) error {
	defer func() {
		sr.mu.Lock()
		sr.open--
		sr.rowsStreamed += q.rows
		sr.lagNotices += q.lags
		sr.mu.Unlock()
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/queries/%d/results", sr.base, q.id), nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("results answered %d", resp.StatusCode)
	}
	seen := make(map[[2]int]bool)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var l streamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return fmt.Errorf("bad stream record %q: %v", sc.Text(), err)
		}
		switch {
		case l.Done != nil:
			q.doneAt, q.state = time.Now(), l.State
			if !*l.Done {
				return fmt.Errorf("stream closed without completing (%s)", l.Reason)
			}
			return nil
		case l.Lag > 0:
			q.lags++
		default:
			if q.rows == 0 {
				q.firstAt, q.firstV = time.Now(), l.Time
			}
			q.lastV = l.Time
			q.rows++
			k := [2]int{l.RID, l.TID}
			if seen[k] {
				return fmt.Errorf("result (%d,%d) delivered twice", l.RID, l.TID)
			}
			seen[k] = true
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("stream ended without a done record")
}

// statsDoc is the part of GET /stats the benchmark reads.
type statsDoc struct {
	Now     float64 `json:"now"`
	Queries []struct {
		ID           int     `json:"id"`
		State        string  `json:"state"`
		Satisfaction float64 `json:"satisfaction"`
	} `json:"queries"`
}

// scrape reads the server's /stats and /metrics after the run.
func (sr *serveRun) scrape() (statsDoc, map[string]float64, error) {
	var st statsDoc
	resp, err := http.Get(sr.base + "/stats")
	if err != nil {
		return st, nil, err
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return st, nil, fmt.Errorf("decoding /stats: %w", err)
	}
	resp, err = http.Get(sr.base + "/metrics")
	if err != nil {
		return st, nil, err
	}
	defer resp.Body.Close()
	prom, err := parseProm(resp.Body)
	return st, prom, err
}

// parseProm reads Prometheus text exposition into a map from the sample's
// full name (with labels, as printed) to its value.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// report turns the run's measurements into metric values and checks the
// run's validity.
func (sr *serveRun) report(setup, rss float64, st statsDoc, prom map[string]float64) {
	var service, ttfr, qdone, ttfrV, qdoneV []float64
	nominal := make(map[int]bool)  // server ids of the nominal-phase queries that completed
	var overFrom, overTo time.Time // the overload phase's span, first due time to last completion
	good, done, cancelled := 0, 0, 0
	for _, q := range sr.queries {
		if q.state == "cancelled" {
			cancelled++
		}
		if !q.accepted || q.state != "done" {
			continue
		}
		done++
		service = append(service, q.doneAt.Sub(q.sent).Seconds())
		lat := q.doneAt.Sub(q.due).Seconds()
		if q.overload {
			if overFrom.IsZero() || q.due.Before(overFrom) {
				overFrom = q.due
			}
			if q.doneAt.After(overTo) {
				overTo = q.doneAt
			}
			if lat <= sr.cfg.limit.Seconds() {
				good++
			}
			continue
		}
		nominal[q.id] = true
		qdone = append(qdone, lat)
		if q.rows > 0 {
			ttfr = append(ttfr, q.firstAt.Sub(q.due).Seconds())
			ttfrV = append(ttfrV, q.firstV-q.arrival)
			qdoneV = append(qdoneV, q.lastV-q.arrival)
		}
	}
	var sat []float64
	for _, q := range st.Queries {
		if q.State == "done" && nominal[q.ID] {
			sat = append(sat, q.Satisfaction)
		}
	}
	if lag := quantile(sr.genLag, 0.99); lag > maxGenLag.Seconds() {
		sr.out.problem("invalid run: the load generator itself fell behind (send lag p99 %.3fs > %v)", lag, maxGenLag)
	}

	fmt.Fprintf(os.Stderr, "perfbench: serve-mixed: %d queries scheduled, %d shed, %d accepted, %d refused, %d completed (%d in time), %d cancelled; virtual clock %.1fs when the overload phase began, %.1fs at the end\n",
		len(sr.queries), sr.shed, len(sr.submitLat), sr.refused, done, good, cancelled, sr.nominalEnd, st.Now)
	v := sr.out.values
	v["setup_s"] = setup
	// The virtual clock advances with the work done, and in the overload
	// phase how many queries are sent depends on how fast the host is, so
	// the virtual figures come from the nominal phase: per query, from its
	// admission to its first and to its last result, the contract
	// satisfaction of its completed queries, and the clock where it ends.
	v["ttfr_virtual_s"] = median(ttfrV)
	v["query_virtual_s"] = median(qdoneV)
	v["virtual_end_s"] = sr.nominalEnd
	v["avg_satisfaction"] = mean(sat)
	v["peak_rss_mb"] = rss

	v["wall.run_p50_s"] = median(service)
	v["wall.ttfr_p50_s"] = median(ttfr)
	v["wall.query_p50_s"] = median(qdone)
	v["wall.mutation_p50_s"] = median(sr.mutationLat)
	v["wall.goodput_qps"] = ratio(float64(good), overTo.Sub(overFrom).Seconds())
	v["serve.submit_p99_s"] = quantile(sr.submitLat, 0.99)
	v["serve.cancel_p99_s"] = quantile(sr.cancelLat, 0.99)
	v["serve.delete_p50_s"] = median(sr.deleteLat)
	v["serve.rejected_429"] = float64(sr.rejected429)
	v["serve.rejected_503"] = float64(sr.rejected503)
	v["session.rows_streamed"] = float64(sr.rowsStreamed)
	v["session.lag_notices"] = float64(sr.lagNotices)
	v["core.cells_touched"] = prom[`caqe_mutations_total{kind="cells_touched"}`]
	v["core.regions_revived"] = prom[`caqe_mutations_total{kind="regions_revived"}`]
	v["loadgen.send_lag_p99_s"] = quantile(sr.genLag, 0.99)
	v["loadgen.backlog_max"] = float64(sr.backlog)
	v["loadgen.shed"] = float64(sr.shed)

	// Engine work inside the server, from its own counters.
	ops := func(op string) float64 { return prom[`caqe_engine_ops_total{op="`+op+`"}`] }
	events := func(kind string) float64 { return prom[`caqe_trace_events_total{kind="`+kind+`"}`] }
	v["skycube.skyline_cmps"] = ops("skyline_cmps")
	v["skycube.cmps_per_join_result"] = ratio(ops("skyline_cmps"), ops("join_results"))
	v["join.probes"] = ops("join_probes")
	v["join.results"] = ops("join_results")
	v["join.hit_frac"] = ratio(ops("join_results"), ops("join_probes"))
	v["run.emissions"] = ops("tuples_emitted")
	v["core.decisions"] = events("decision")
	v["core.discards"] = events("discard")
	v["core.defer_frac"] = ratio(events("defer"), events("decision")+events("defer"))
}
