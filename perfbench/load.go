package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the number of closed-loop clients, each on its own
// connection: a client sends its next request only once the previous
// one has been answered.
const clients = 2

// loadResult is one pass of a stream against a server.
type loadResult struct {
	ops        []op
	ms         []float64 // latency of each op in milliseconds; NaN if it failed
	acked      int       // ingested records the server accepted
	start, end mark      // the pass's bounds
	problems   []string  // failures and wrong answers, at most a few
}

// mark is one end of a pass: the time, the server's CPU time then, and
// the machine's CPU counters.
type mark struct {
	at  time.Time
	cpu time.Duration
	sys cpuTicks
}

// cpuTicks are the machine-wide CPU counters of /proc/stat: time spent
// running anything, and time the hypervisor withheld from a runnable
// virtual CPU (steal).
type cpuTicks struct{ busy, steal int64 }

func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var t cpuTicks
	// user nice system idle iowait irq softirq steal
	for i, v := range f[1:min(len(f), 9)] {
		n, _ := strconv.ParseInt(v, 10, 64)
		switch i {
		case 3, 4:
		case 7:
			t.steal = n
		default:
			t.busy += n
		}
	}
	return t
}

// passStats summarises a pass over its whole request budget.
type passStats struct {
	Ops      int     `json:"ops"`
	Rate     float64 `json:"ops_per_s"`
	P50      float64 `json:"p50_ms"`
	P99      float64 `json:"p99_ms"`
	CPUPerOp float64 `json:"cpu_ms_per_op"`
	// StealFrac is the share of the CPU time the machine asked for that
	// the hypervisor withheld during the pass.
	StealFrac float64 `json:"steal_frac"`
}

func (r *loadResult) stats() passStats {
	var l latencies
	for _, ms := range r.ms {
		if !math.IsNaN(ms) {
			l = append(l, ms)
		}
	}
	l = l.sorted()
	st := passStats{Ops: len(l), P50: l.at(0.5), P99: l.at(0.99)}
	if len(l) > 0 {
		st.Rate = float64(len(l)) / r.wall().Seconds()
		st.CPUPerOp = float64(r.end.cpu-r.start.cpu) / float64(time.Millisecond) / float64(len(l))
	}
	st.StealFrac = stealFrac(r.start.sys, r.end.sys)
	return st
}

// stealFrac is the share of the CPU time the machine asked for between
// two readings that the hypervisor withheld.
func stealFrac(a, b cpuTicks) float64 {
	busy, stolen := b.busy-a.busy, b.steal-a.steal
	if busy+stolen <= 0 {
		return 0
	}
	return float64(stolen) / float64(busy+stolen)
}

func (r *loadResult) counts() (attempted, failed int) {
	for _, ms := range r.ms {
		if math.IsNaN(ms) {
			failed++
		}
	}
	return len(r.ms), failed
}

func (r *loadResult) wall() time.Duration { return r.end.at.Sub(r.start.at) }

// kind returns the latencies of one op kind, and how many of its ops
// were attempted.
func (r *loadResult) kind(k opKind) (l latencies, attempted int) {
	for i, ms := range r.ms {
		if r.ops[i].kind != k {
			continue
		}
		attempted++
		if !math.IsNaN(ms) {
			l = append(l, ms)
		}
	}
	return l, attempted
}

// runLoad sends every op to the server through the closed-loop clients,
// which take ops from the stream in order, and checks every answer.
// cpu, when not nil, reads the server's CPU time at the pass's ends.
func runLoad(ctx context.Context, baseURL string, ops []op, cpu func() time.Duration) *loadResult {
	n := len(ops)
	res := &loadResult{ops: ops, ms: make([]float64, n)}
	markAt := func(m *mark) {
		m.sys = readCPUTicks()
		m.at = time.Now()
		if cpu != nil {
			m.cpu = cpu()
		}
	}
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	markAt(&res.start)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One connection per client.
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			hc := &http.Client{Transport: tr, Timeout: 120 * time.Second}
			acked := 0
			var problems []string
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					break
				}
				ms, a, err := send(ctx, hc, baseURL, &ops[i])
				if err != nil {
					res.ms[i] = math.NaN()
					if len(problems) < 5 {
						problems = append(problems, err.Error())
					}
					continue
				}
				res.ms[i] = ms
				acked += a
			}
			mu.Lock()
			defer mu.Unlock()
			res.acked += acked
			res.problems = append(res.problems, problems...)
		}()
	}
	wg.Wait()
	markAt(&res.end)
	return res
}

// send issues one op and checks its answer. It returns the latency in
// milliseconds and, for an ingest, the records acknowledged.
func send(ctx context.Context, hc *http.Client, baseURL string, o *op) (float64, int, error) {
	method, path, body := o.request()
	req, err := http.NewRequestWithContext(ctx, method, baseURL+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/x-ndjson")
	}
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return 0, 0, fmt.Errorf("%s %s: %w", method, path, err)
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := float64(time.Since(t0)) / float64(time.Millisecond)
	if err != nil {
		return 0, 0, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	want := http.StatusOK
	if o.kind == opIngest {
		want = http.StatusAccepted
	}
	if resp.StatusCode != want {
		return 0, 0, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, payload)
	}
	acked, err := check(o, payload)
	if err != nil {
		return 0, 0, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return ms, acked, nil
}

// check validates an answer's shape against the request.
func check(o *op, payload []byte) (int, error) {
	switch o.kind {
	case opIngest:
		var r struct {
			Accepted int `json:"accepted"`
			Rejected int `json:"rejected"`
		}
		if err := json.Unmarshal(payload, &r); err != nil {
			return 0, err
		}
		if r.Accepted != o.records || r.Rejected != 0 {
			return 0, fmt.Errorf("accepted %d and rejected %d of %d records", r.Accepted, r.Rejected, o.records)
		}
		return r.Accepted, nil
	case opScore:
		var r struct {
			Region string `json:"region"`
			Score  struct {
				IQB float64 `json:"iqb"`
			} `json:"score"`
		}
		if err := json.Unmarshal(payload, &r); err != nil {
			return 0, err
		}
		if r.Region != o.region || r.Score.IQB < 0 || r.Score.IQB > 1 {
			return 0, fmt.Errorf("score of %q is %v", r.Region, r.Score.IQB)
		}
	case opRanking:
		var r struct {
			Rows    []json.RawMessage `json:"rows"`
			Omitted int               `json:"omitted"`
		}
		if err := json.Unmarshal(payload, &r); err != nil {
			return 0, err
		}
		if len(r.Rows) == 0 || r.Omitted != 0 {
			return 0, fmt.Errorf("ranking has %d rows, %d omitted", len(r.Rows), r.Omitted)
		}
	case opTimeseries:
		var r struct {
			Region string            `json:"region"`
			Points []json.RawMessage `json:"points"`
		}
		if err := json.Unmarshal(payload, &r); err != nil {
			return 0, err
		}
		if r.Region != o.region || len(r.Points) == 0 {
			return 0, fmt.Errorf("series of %q has %d points", r.Region, len(r.Points))
		}
	}
	return 0, nil
}
