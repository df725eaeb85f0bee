package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iqb/internal/dataset"
	"iqb/internal/geo"
	"iqb/internal/httpapi"
	"iqb/internal/ingest"
	"iqb/internal/iqb"
	"iqb/internal/persist"
	"iqb/internal/pipeline"
	"iqb/internal/scorecache"
	"iqb/internal/telemetry"
)

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer started.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`     // request index; drains count from drainOpBase
	Parent int    `json:"parent"` // index of the parent span; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// drainOpBase numbers ingest drains apart from requests.
const drainOpBase = 1 << 30

// tracer keeps spans in memory until the run ends. While it is off it
// records nothing.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a span and returns its index, which children name as
// their parent; -1 if the tracer is off.
func (t *tracer) add(s span) int {
	if !t.on.Load() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

func (t *tracer) finish(i int) {
	if i < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// child records a span of a call that ran from start to now.
func (t *tracer) child(name string, op, parent int, start int64) {
	if parent < 0 {
		return
	}
	t.add(span{Name: name, Op: op, Parent: parent, Start: start, End: t.now()})
}

// ioEvent is one timed WAL file write or fsync.
type ioEvent struct {
	name       string
	start, end int64
}

// timedFS is the WAL's file system with every segment write and fsync
// timed: the persist.Options.FS seam.
type timedFS struct {
	t  *tracer
	mu *sync.Mutex
	ev *[]ioEvent
}

func (f timedFS) record(name string, start int64) {
	if !f.t.on.Load() {
		return
	}
	e := ioEvent{name: name, start: start, end: f.t.now()}
	f.mu.Lock()
	*f.ev = append(*f.ev, e)
	f.mu.Unlock()
}

func (f timedFS) OpenFile(name string, flag int, perm os.FileMode) (persist.WALFile, error) {
	file, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return timedFile{File: file, fs: f}, nil
}

func (f timedFS) Open(name string) (persist.WALFile, error) {
	file, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return file, nil
}

func (timedFS) Remove(name string) error { return os.Remove(name) }

func (timedFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	return errors.Join(err, d.Close())
}

type timedFile struct {
	*os.File
	fs timedFS
}

func (f timedFile) Write(p []byte) (int, error) {
	start := f.fs.t.now()
	n, err := f.File.Write(p)
	f.fs.record("persist.wal_write", start)
	return n, err
}

func (f timedFile) Sync() error {
	start := f.fs.t.now()
	err := f.File.Sync()
	f.fs.record("persist.fsync", start)
	return err
}

// drainMarks are the instants the store's hook chain reports for one
// AddBatch: after the WAL tee, after the score cache marks the batch
// pending, after the records are applied, after the cache invalidates.
type drainMarks struct {
	ops                               []int // requests merged into this batch
	records                           int
	teeEnd, markEnd, applyEnd, invEnd int64
}

// drainProbe observes AddBatch from two places in the hook chain: head
// sits right after the WAL tee, tail after the score cache. Hooks run
// on the ingest drainer only, one batch at a time.
type drainProbe struct {
	t      *tracer
	opOf   map[string]int // first record ID of a request -> request index
	reqs   []op
	cur    drainMarks
	mu     sync.Mutex
	drains []drainMarks
}

func (p *drainProbe) head() dataset.Hooks {
	return dataset.Hooks{
		Ingest: func(rs []dataset.Record) error {
			if !p.t.on.Load() {
				return nil
			}
			p.cur = drainMarks{teeEnd: p.t.now(), records: len(rs)}
			for i := 0; i < len(rs); {
				j, ok := p.opOf[rs[i].ID]
				if !ok {
					break
				}
				p.cur.ops = append(p.cur.ops, j)
				i += p.reqs[j].records
			}
			return nil
		},
		Commit: func([]dataset.Record) {
			if p.t.on.Load() {
				p.cur.applyEnd = p.t.now()
			}
		},
	}
}

func (p *drainProbe) tail() dataset.Hooks {
	return dataset.Hooks{
		Ingest: func([]dataset.Record) error {
			if p.t.on.Load() {
				p.cur.markEnd = p.t.now()
			}
			return nil
		},
		Commit: func([]dataset.Record) {
			if !p.t.on.Load() {
				return
			}
			p.cur.invEnd = p.t.now()
			p.mu.Lock()
			p.drains = append(p.drains, p.cur)
			p.mu.Unlock()
		},
	}
}

// stack is the server's layers built in-process from the constructors
// cmd/iqbserver uses, with the tracing seams attached if a probe is
// given.
type stack struct {
	cfg    iqb.Config
	db     *geo.DB
	store  *dataset.Store
	mgr    *persist.Manager
	cache  *scorecache.Cache
	ing    *ingest.Ingester
	api    *httpapi.Server
	remove []func()

	pipelineRun    time.Duration
	callsPerRegion int // Store.AggregateCount calls to score one region
}

var discardLog = slog.New(slog.NewTextHandler(io.Discard, nil))

func buildStack(dir string, fs persist.WALFS, probe *drainProbe) (*stack, error) {
	reg := telemetry.NewRegistry()
	mgr, err := persist.Open(dir, persist.Options{Metrics: reg, FS: fs})
	if err != nil {
		return nil, err
	}
	st := &stack{cfg: iqb.DefaultConfig(), mgr: mgr, store: mgr.Store()}
	spec := pipeline.DefaultSpec()
	spec.Seed = worldSeed
	spec.TestsPerCounty = worldTests
	if err := mgr.SetMeta(map[string]string{
		"seed":             strconv.Itoa(worldSeed),
		"tests_per_county": strconv.Itoa(worldTests),
	}); err != nil {
		return nil, errors.Join(err, mgr.Close())
	}
	spec.Store = mgr.Store()
	start := time.Now()
	res, err := pipeline.Run(context.Background(), spec)
	if err != nil {
		return nil, errors.Join(err, mgr.Close())
	}
	st.pipelineRun = time.Since(start)
	st.db = res.World.DB
	if _, err := mgr.Snapshot(); err != nil {
		return nil, errors.Join(err, mgr.Close())
	}
	// The probe's head joins the hook chain after the WAL tee and before
	// the score cache; its tail after the cache.
	if probe != nil {
		st.remove = append(st.remove, st.store.AddHooks(probe.head()))
	}
	if st.cache, err = scorecache.New(st.store, st.cfg, discardLog); err != nil {
		return nil, st.close(err)
	}
	st.cache.RegisterMetrics(reg)
	if probe != nil {
		st.remove = append(st.remove, st.store.AddHooks(probe.tail()))
	}
	if st.ing, err = ingest.New(st.store, ingest.Options{Metrics: reg}); err != nil {
		return nil, st.close(err)
	}
	if st.api, err = httpapi.New(st.cfg, st.store, st.db, discardLog); err != nil {
		return nil, st.close(err)
	}
	st.api.SetPersistence(mgr)
	st.api.SetScoreCache(st.cache)
	st.api.SetIngest(st.ing, 0)
	st.api.SetMetrics(reg)
	for _, d := range st.cfg.Datasets {
		st.callsPerRegion += len(d.Capabilities)
	}
	return st, nil
}

// close tears the stack down in cmd/iqbserver's order: ingest drains
// while the WAL is still open.
func (st *stack) close(cause error) error {
	errs := []error{cause}
	if st.ing != nil {
		errs = append(errs, st.ing.Close())
	}
	if st.cache != nil {
		st.cache.Close()
	}
	for _, r := range st.remove {
		r()
	}
	errs = append(errs, st.mgr.Close())
	return errors.Join(errs...)
}

// fetch serves one GET through the in-process handler.
func (st *stack) fetch(path string) ([]byte, error) {
	rec := httptest.NewRecorder()
	st.api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, rec.Code)
	}
	return rec.Body.Bytes(), nil
}

// replayer issues requests straight to the layers, in the order the
// server's handlers call them, recording a span around each call.
type replayer struct {
	st       *stack
	t        *tracer
	enqStart []int64 // when each ingest request reached Enqueue
	failed   atomic.Int64
	mu       sync.Mutex
	problems []string
}

func (r *replayer) fail(err error) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.problems) < 5 {
		r.problems = append(r.problems, err.Error())
	}
	r.mu.Unlock()
}

func encode(v any) error {
	var buf bytes.Buffer
	return json.NewEncoder(&buf).Encode(v)
}

// run replays reqs[from:to] from the closed-loop clients and returns
// the wall time.
func (r *replayer) run(reqs []op, from, to int) time.Duration {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	next.Store(int64(from))
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= to {
					return
				}
				if err := r.do(reqs, i); err != nil {
					r.fail(err)
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

func (r *replayer) do(reqs []op, i int) error {
	root := r.t.add(span{Name: "op." + reqs[i].kind.String(), Op: i, Parent: -1, Start: r.t.now()})
	probe, err := r.serve(&reqs[i], i, root)
	r.t.finish(root)
	if err != nil || probe == nil || root < 0 {
		return err
	}
	return probe()
}

// serve handles one request under its root span. It may return a layer
// probe to run once the request's span has closed.
func (r *replayer) serve(o *op, i, root int) (probe func() error, err error) {
	t, st := r.t, r.st
	if o.kind == opScore || o.kind == opTimeseries {
		if _, ok := st.db.Region(o.region); !ok {
			return nil, fmt.Errorf("unknown region %q", o.region)
		}
	}
	switch o.kind {
	case opIngest:
		dec := dataset.NewNDJSONDecoder(bytes.NewReader(o.body))
		chunk := st.ing.DrainRecords()
		for {
			s := t.now()
			rs, wire, err := dec.Next(chunk)
			t.child("httpapi.decode", i, root, s)
			if err == io.EOF {
				return nil, nil
			}
			if err != nil {
				return nil, err
			}
			s = t.now()
			r.enqStart[i] = s
			err = st.ing.Enqueue(rs, wire)
			t.child("ingest.enqueue", i, root, s)
			if err != nil {
				return nil, err
			}
		}
	case opScore:
		s := t.now()
		sc, outcome, err := st.cache.Score(o.region, time.Time{}, time.Time{})
		t.child("scorecache.score", i, root, s)
		if err != nil {
			return nil, err
		}
		s = t.now()
		err = encode(httpapi.ScoreResponse{Region: o.region, Score: sc})
		t.child("httpapi.encode.score", i, root, s)
		if err != nil {
			return nil, err
		}
		if outcome == scorecache.Miss || outcome == scorecache.MissUncacheable {
			return func() error { return r.shadowScore(i, o.region) }, nil
		}
	case opRanking:
		repairs := st.cache.Stats().RankingRepairs
		s := t.now()
		ranked, omitted := st.cache.Ranking(st.db.Regions(geo.County))
		t.child("scorecache.ranking", i, root, s)
		repaired := st.cache.Stats().RankingRepairs != repairs
		s = t.now()
		rows := make([]httpapi.RankingRow, 0, len(ranked))
		for _, row := range ranked {
			reg, ok := st.db.Region(row.Region)
			if !ok {
				continue
			}
			rows = append(rows, httpapi.RankingRow{Rank: len(rows) + 1, Region: row.Region,
				Character: reg.Character.String(), IQB: row.Score.IQB, Grade: string(row.Score.Grade)})
		}
		err := encode(httpapi.RankingResponse{Rows: rows, Omitted: omitted})
		t.child("httpapi.encode.ranking", i, root, s)
		if err != nil {
			return nil, err
		}
		if repaired {
			return func() error { return r.shadowScore(i, o.region) }, nil
		}
	case opTimeseries:
		s := t.now()
		from, to, ok := st.store.TimeBounds(dataset.Filter{RegionPrefix: o.region})
		t.child("dataset.time_bounds", i, root, s)
		if !ok {
			return nil, fmt.Errorf("no data for %q", o.region)
		}
		s = t.now()
		points, err := st.cfg.ScoreWindows(st.store, o.region, from, to.Add(time.Nanosecond), 24*time.Hour)
		t.child("iqb.score_windows", i, root, s)
		if err != nil {
			return nil, err
		}
		s = t.now()
		err = encode(httpapi.TimeSeriesResponse{Region: o.region, Window: (24 * time.Hour).String(), Points: points})
		t.child("httpapi.encode.timeseries", i, root, s)
		if err != nil {
			return nil, err
		}
		// One of the series' windows, scanned on its own.
		w := from.Add(time.Duration(i%len(points)) * 24 * time.Hour)
		return func() error {
			s := t.now()
			_, err := st.cfg.AggregateStore(st.store, o.region, w, w.Add(24*time.Hour))
			t.add(span{Name: "dataset.window_scan", Op: i, Parent: -1, Start: s, End: t.now()})
			return err
		}, nil
	}
	return nil, nil
}

// shadowScore times iqb.Config.ScoreRegion for one region in its two
// public halves, after the request that scored it inside the cache: the
// store aggregation (AggregateStore, one Store.AggregateCount per
// dataset requirement) and the scoring of those aggregates.
func (r *replayer) shadowScore(i int, region string) error {
	t, st := r.t, r.st
	root := t.add(span{Name: "iqb.score_region", Op: i, Parent: -1, Start: t.now()})
	defer t.finish(root)
	s := t.now()
	agg, err := st.cfg.AggregateStore(st.store, region, time.Time{}, time.Time{})
	t.child("dataset.aggregate", i, root, s)
	if err != nil {
		return err
	}
	_, err = st.cfg.ScoreAggregates(agg)
	if errors.Is(err, iqb.ErrNoUsableData) {
		return nil
	}
	return err
}

// session is the traced run's pass over the real server: the same
// stream as the measured run, bracketed by the probe requests, with
// /metrics and the process's resident set read around it.
type session struct {
	load                [3]*loadResult // pre-probes, stream, post-probes
	before, after       map[string]float64
	hwmBefore, hwmAfter int64
	recBefore, recAfter int
	digest              string
}

// splitProbes orders probe requests around the stream: reads run
// before it, on the seeded world; ingests after it, once the digest is
// taken.
func splitProbes(probes []op) (pre, post []op) {
	for _, o := range probes {
		if o.kind == opIngest {
			post = append(post, o)
		} else {
			pre = append(pre, o)
		}
	}
	return pre, post
}

func serverSession(ctx context.Context, cfg config, g geography, parts [3][]op) (*session, error) {
	srv, err := bootServer(cfg.server, filepath.Join(cfg.work, "data-http"), filepath.Join(cfg.work, "server.log"))
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	ss := &session{}
	if ss.before, err = srv.scrape(ctx); err != nil {
		return nil, err
	}
	st, err := srv.stats()
	if err != nil {
		return nil, err
	}
	ss.hwmBefore = st.hwmKB
	if ss.recBefore, err = srv.records(ctx); err != nil {
		return nil, err
	}
	for p := range parts {
		ss.load[p] = runLoad(ctx, srv.url, parts[p], nil)
		if p == 1 {
			ss.digest, err = digest(g, func(path string) ([]byte, error) { return get(ctx, httpClient, srv.url+path) })
			if err != nil {
				return nil, err
			}
		}
	}
	if ss.after, err = srv.scrape(ctx); err != nil {
		return nil, err
	}
	if st, err = srv.stats(); err != nil {
		return nil, err
	}
	ss.hwmAfter = st.hwmKB
	if ss.recAfter, err = srv.records(ctx); err != nil {
		return nil, err
	}
	return ss, srv.stop()
}

// traced is the -trace 1 run: per-layer metrics from a pass over the
// real server (counts from /metrics, HTTP latencies) and an in-process
// replay of the same requests (spans).
func traced(ctx context.Context, cfg config) (*result, error) {
	g, err := loadGeography()
	if err != nil {
		return nil, err
	}
	stream := generate(cfg.w, g, cfg.seed, cfg.seconds)
	streamRecords := 0
	for i := range stream {
		streamRecords += stream[i].records
	}
	pre, post := splitProbes(generateProbes(cfg.w, g, cfg.seed, streamRecords))
	parts := [3][]op{pre, stream, post}

	ss, err := serverSession(ctx, cfg, g, parts)
	if err != nil {
		return nil, err
	}

	// In-process replays of the same requests, in the same order: first
	// untraced, on a stack with no probes and the real file system, then
	// traced on a fresh one. Their stream rates give tracing's overhead.
	var reqs []op
	for _, p := range parts {
		reqs = append(reqs, p...)
	}
	plain, err := buildStack(filepath.Join(cfg.work, "data-plain"), nil, nil)
	if err != nil {
		return nil, err
	}
	pr := &replayer{st: plain, t: &tracer{epoch: time.Now()}, enqStart: make([]int64, len(reqs))}
	pr.run(reqs, 0, len(pre))
	plainWall := pr.run(reqs, len(pre), len(pre)+len(stream))
	plainDigest, err := digest(g, plain.fetch)
	if err := plain.close(err); err != nil {
		return nil, err
	}

	t := &tracer{epoch: time.Now()}
	var ioMu sync.Mutex
	var ioEvents []ioEvent
	fs := timedFS{t: t, mu: &ioMu, ev: &ioEvents}
	probe := &drainProbe{t: t, opOf: map[string]int{}, reqs: reqs}
	for i := range reqs {
		if reqs[i].kind == opIngest {
			probe.opOf[reqs[i].firstID] = i
		}
	}
	dir := filepath.Join(cfg.work, "data-trace")
	st, err := buildStack(dir, fs, probe)
	if err != nil {
		return nil, err
	}
	r := &replayer{st: st, t: t, enqStart: make([]int64, len(reqs))}
	t.on.Store(true)
	r.run(reqs, 0, len(pre))
	streamWall := r.run(reqs, len(pre), len(pre)+len(stream))
	t.on.Store(false)
	inDigest, err := digest(g, st.fetch)
	if err != nil {
		return nil, st.close(err)
	}
	t.on.Store(true)
	r.run(reqs, len(pre)+len(stream), len(reqs))
	t.on.Store(false)
	snapStart := time.Now()
	_, err = st.mgr.Snapshot()
	snapshot := time.Since(snapStart)
	if err := st.close(err); err != nil {
		return nil, err
	}
	recStart := time.Now()
	mgr, err := persist.Open(dir, persist.Options{})
	recover := time.Since(recStart)
	if err != nil {
		return nil, err
	}
	if err := mgr.Close(); err != nil {
		return nil, err
	}

	var problems []string
	for _, l := range ss.load {
		problems = append(problems, l.problems...)
	}
	problems = append(problems, pr.problems...)
	problems = append(problems, r.problems...)
	for name, d := range map[string]string{"untraced": plainDigest, "traced": inDigest} {
		if d != ss.digest {
			problems = append(problems, fmt.Sprintf("%s in-process replay digest %s, server %s", name, d, ss.digest))
		}
	}
	attempted, failed := 0, int(pr.failed.Load()+r.failed.Load())
	for _, l := range ss.load {
		a, f := l.counts()
		attempted += a
		failed += f
	}
	attempted += len(pre) + len(stream) + len(reqs)

	spans := append([]span(nil), t.spans...)
	drainSpans(&spans, probe.drains, ioEvents, r.enqStart)
	if err := writeSpans(cfg, spans); err != nil {
		return nil, err
	}
	drained := 0
	for _, d := range probe.drains {
		drained += d.records
	}
	m := layerMetrics(spans, reqs, drained, ss, st.callsPerRegion)
	m["trace.ops_per_s_ratio"] = metric{plainWall.Seconds() / streamWall.Seconds(), "ratio"}
	m["pipeline.run_s"] = metric{st.pipelineRun.Seconds(), "s"}
	m["persist.snapshot_s"] = metric{snapshot.Seconds(), "s"}
	m["persist.recover_s"] = metric{recover.Seconds(), "s"}
	printDetail(map[string]any{
		"workload":           cfg.w.name,
		"seed":               cfg.seed,
		"digest":             ss.digest,
		"untraced_ops_per_s": float64(len(stream)) / plainWall.Seconds(),
		"traced_ops_per_s":   float64(len(stream)) / streamWall.Seconds(),
		"http_ops_per_s":     ss.load[1].stats().Rate,
		"spans":              len(spans),
		"problems":           problems,
	})
	return &result{Correct: len(problems) == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// drainSpans turns the hook and file-system instants of each AddBatch
// into spans. The batch's start is not observable from a public seam;
// it is taken as the later of the last merged request reaching Enqueue
// and the previous batch's end, so the WAL tee span also covers the
// drainer's hand-off and the store's pre-WAL checks.
func drainSpans(spans *[]span, drains []drainMarks, io []ioEvent, enqStart []int64) {
	add := func(s span) int {
		*spans = append(*spans, s)
		return len(*spans) - 1
	}
	sort.Slice(io, func(a, b int) bool { return io[a].start < io[b].start })
	var prevEnd int64
	k := 0
	for n, d := range drains {
		opID := drainOpBase + n
		start := prevEnd
		for _, j := range d.ops {
			if enqStart[j] > start {
				start = enqStart[j]
			}
		}
		root := add(span{Name: "ingest.drain", Op: opID, Parent: -1, Start: start, End: d.invEnd})
		tee := add(span{Name: "persist.wal_tee", Op: opID, Parent: root, Start: start, End: d.teeEnd})
		for ; k < len(io) && io[k].start < d.teeEnd; k++ {
			if io[k].start >= start {
				add(span{Name: io[k].name, Op: opID, Parent: tee, Start: io[k].start, End: io[k].end})
			}
		}
		ab := add(span{Name: "dataset.add_batch", Op: opID, Parent: root, Start: d.teeEnd, End: d.applyEnd})
		add(span{Name: "scorecache.mark_pending", Op: opID, Parent: ab, Start: d.teeEnd, End: d.markEnd})
		add(span{Name: "scorecache.invalidate", Op: opID, Parent: root, Start: d.applyEnd, End: d.invEnd})
		prevEnd = d.invEnd
	}
}

func writeSpans(cfg config, spans []span) error {
	dir := filepath.Join(filepath.Dir(cfg.work), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", cfg.w.name, cfg.seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// selfTime is a span's duration less the part of it its children cover.
func selfTime(spans []span, children map[int][]int, i int) time.Duration {
	kids := children[i]
	iv := make([][2]int64, 0, len(kids))
	for _, c := range kids {
		iv = append(iv, [2]int64{spans[c].Start, spans[c].End})
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var covered, reach int64
	reach = spans[i].Start
	for _, v := range iv {
		lo, hi := max(v[0], reach), min(v[1], spans[i].End)
		if hi > lo {
			covered += hi - lo
			reach = hi
		}
	}
	return spans[i].dur() - time.Duration(covered)
}

// layerMetrics derives the per-layer metrics from the replay's spans
// and the server session's counters.
func layerMetrics(spans []span, reqs []op, drained int, ss *session, callsPerRegion int) map[string]metric {
	children := map[int][]int{}
	byName := map[string][]int{}
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
		byName[s.Name] = append(byName[s.Name], i)
	}
	durs := func(name string) latencies {
		var l latencies
		for _, i := range byName[name] {
			l = append(l, float64(spans[i].dur())/float64(time.Millisecond))
		}
		return l.sorted()
	}
	p50ms := func(name string) float64 { return durs(name).at(0.5) }
	total := func(name string, self bool) time.Duration {
		var d time.Duration
		for _, i := range byName[name] {
			if self {
				d += selfTime(spans, children, i)
			} else {
				d += spans[i].dur()
			}
		}
		return d
	}
	var ingestRecords int
	for i := range reqs {
		ingestRecords += reqs[i].records
	}
	delta := func(series string) float64 { return ss.after[series] - ss.before[series] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

	// HTTP p50 per kind over every request of the session.
	var httpLat [numKinds]latencies
	for _, l := range ss.load {
		for k := opKind(0); k < numKinds; k++ {
			lat, _ := l.kind(k)
			httpLat[k] = append(httpLat[k], lat...)
		}
	}
	m := map[string]metric{}
	for k := opKind(0); k < numKinds; k++ {
		// The server's own p50 for the route, from its DDSketch summary.
		method, path, _ := (&op{kind: k}).request()
		path, _, _ = strings.Cut(path, "?")
		handler := ss.after[`iqb_http_request_seconds{method="`+method+`",path="`+path+`",quantile="0.5"}`] * 1000
		m["httpapi.overhead_ms."+k.String()] = metric{httpLat[k].sorted().at(0.5) - handler, "ms"}
	}
	m["httpapi.decode_us_per_record"] = metric{ratio(us(total("httpapi.decode", false)), float64(ingestRecords)), "us"}
	m["httpapi.encode_ms.score"] = metric{p50ms("httpapi.encode.score"), "ms"}
	m["httpapi.encode_ms.ranking"] = metric{p50ms("httpapi.encode.ranking"), "ms"}
	m["httpapi.encode_ms.timeseries"] = metric{p50ms("httpapi.encode.timeseries"), "ms"}
	m["ingest.enqueue_ms"] = metric{p50ms("ingest.enqueue"), "ms"}
	m["ingest.records_per_drain"] = metric{ratio(delta("iqb_ingest_drain_records_sum"), delta("iqb_ingest_drains_total")), "count"}
	rejected := delta("iqb_ingest_rejected_records_total")
	m["ingest.shed_frac"] = metric{ratio(rejected, rejected+delta("iqb_ingest_accepted_records_total")), "ratio"}
	m["dataset.add_batch_us_per_record"] = metric{ratio(us(total("dataset.add_batch", false)), float64(drained)), "us"}
	m["dataset.aggregate_ms"] = metric{p50ms("dataset.aggregate"), "ms"}
	reads := delta(`iqb_http_requests_total{method="GET",path="/v1/score"}`) + delta(`iqb_http_requests_total{method="GET",path="/v1/ranking"}`)
	// Every scoring counts as a miss, whether or not it could be kept,
	// ranking repairs included. No public seam counts AggregateCount
	// calls, so the calls per scoring come from the configuration: this
	// metric moves with how often a read has to score, not with how many
	// calls a scoring makes.
	scorings := delta("iqb_scorecache_misses_total")
	m["dataset.aggregate_calls_per_op"] = metric{ratio(scorings*float64(callsPerRegion), reads), "count"}
	m["dataset.window_scan_ms"] = metric{p50ms("dataset.window_scan"), "ms"}
	m["dataset.rss_bytes_per_record"] = metric{ratio(float64(ss.hwmAfter-ss.hwmBefore)*1024, float64(ss.recAfter-ss.recBefore)), "B"}
	m["persist.wal_tee_us_per_record"] = metric{ratio(us(total("persist.wal_tee", true)), float64(drained)), "us"}
	m["persist.wal_write_ms"] = metric{p50ms("persist.wal_write"), "ms"}
	m["persist.fsync_ms"] = metric{p50ms("persist.fsync"), "ms"}
	m["persist.fsyncs_per_krec"] = metric{1000 * ratio(delta("iqb_wal_fsyncs_total"), delta("iqb_wal_records_total")), "count"}
	m["persist.wal_bytes_per_record"] = metric{ratio(delta("iqb_wal_size_bytes"), delta("iqb_wal_records_total")), "B"}
	hits := delta("iqb_scorecache_hits_total")
	lookups := hits + scorings + delta("iqb_scorecache_shared_flights_total")
	m["scorecache.hit_ratio"] = metric{ratio(hits, lookups), "ratio"}
	m["scorecache.repairs_per_ranking"] = metric{ratio(delta("iqb_scorecache_ranking_repairs_total"), delta(`iqb_http_requests_total{method="GET",path="/v1/ranking"}`)), "count"}
	m["scorecache.score_ms"] = metric{p50ms("scorecache.score"), "ms"}
	m["scorecache.ranking_ms"] = metric{p50ms("scorecache.ranking"), "ms"}
	m["scorecache.invalidate_us_per_batch"] = metric{durs("scorecache.invalidate").at(0.5) * 1000, "us"}
	m["iqb.score_region_ms"] = metric{p50ms("iqb.score_region"), "ms"}
	m["iqb.score_windows_ms"] = metric{p50ms("iqb.score_windows"), "ms"}
	return m
}
