package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"net/url"
	"strconv"
	"time"

	"iqb/internal/geo"
	"iqb/internal/pipeline"
)

// The world every workload boots: the server simulates it on first boot
// of an empty data dir. It is fixed, not drawn from the workload seed, so
// set-up does identical work in every run; the seed drives only the
// requests sent to it.
const (
	worldSeed  = 42
	worldTests = 600
)

// historyEnd is where the world's simulated week ends; ingested records
// are stamped on a virtual clock that starts here, never the wall clock.
var historyEnd = pipeline.DefaultSpec().Start.AddDate(0, 0, pipeline.DefaultSpec().Days)

type opKind int

const (
	opIngest opKind = iota
	opScore
	opRanking
	opTimeseries
	numKinds
)

var kindNames = [numKinds]string{"ingest", "score", "ranking", "timeseries"}

func (k opKind) String() string { return kindNames[k] }

// op is one request of a workload's stream.
type op struct {
	kind opKind
	// region is the score or timeseries target; for ranking it names the
	// county the traced run rescores as a layer probe.
	region string
	// body is the NDJSON request body of an ingest; records counts its
	// lines and firstID names its first record.
	body    []byte
	records int
	firstID string
}

// request returns the HTTP method, path and body of the op.
func (o *op) request() (method, path string, body []byte) {
	switch o.kind {
	case opIngest:
		return "POST", "/v1/ingest", o.body
	case opScore:
		return "GET", "/v1/score?region=" + url.QueryEscape(o.region), nil
	case opRanking:
		return "GET", "/v1/ranking", nil
	default:
		return "GET", "/v1/timeseries?region=" + url.QueryEscape(o.region), nil
	}
}

// workload is a fixed request budget and the shape of its requests.
type workload struct {
	name string
	// opsPerSecond sizes the budget: a run of S seconds sends
	// S*opsPerSecond requests, whatever the machine's speed.
	opsPerSecond int
	// mix weighs the op kinds, indexed by opKind.
	mix [numKinds]int
	// restarts is how many times a run restarts the server on its final
	// data dir; restart_s is the median. Short recoveries are repeated
	// more so that the median rests on a few seconds of restarts.
	restarts int
}

// live_mixed's mix is the CI's iqbsim mix that the ROADMAP baseline was
// measured with. read_history keeps that mix's score:ranking ratio of
// 25:15; its time-series share (one request in five) has no measured
// source and is a choice: it gives each run at least 1000 series.
var workloads = map[string]workload{
	"live_mixed": {
		name:         "live_mixed",
		opsPerSecond: 700,
		mix:          [numKinds]int{60, 25, 15, 0},
		restarts:     9,
	},
	"read_history": {
		name:         "read_history",
		opsPerSecond: 500,
		mix:          [numKinds]int{0, 50, 30, 20},
		restarts:     41,
	},
}

// probeOps is how many requests of each kind a workload's stream lacks
// the traced run adds, so that it measures those kinds' layers too.
const probeOps = 50

// Each ingest request carries batchRecords records, stamped recordStep
// apart on the virtual clock.
const (
	batchRecords = 25
	recordStep   = time.Second
)

// geography lists the world's region codes.
type geography struct {
	all      []string // every region, sorted
	counties []string // county codes, sorted
}

func loadGeography() (geography, error) {
	spec := pipeline.DefaultSpec()
	spec.Seed = worldSeed
	spec.TestsPerCounty = worldTests
	w, err := pipeline.BuildWorld(spec)
	if err != nil {
		return geography{}, fmt.Errorf("building geography: %w", err)
	}
	return geography{all: w.DB.AllRegions(), counties: w.DB.Regions(geo.County)}, nil
}

// generator draws a workload's requests from its seed.
type generator struct {
	w       workload
	g       geography
	rnd     *rand.Rand
	seed    uint64
	records int // records drawn so far; indexes IDs and the virtual clock
	decks   [numKinds][]string
}

func newGenerator(w workload, g geography, seed uint64, stream string) *generator {
	h := fnv.New64a()
	h.Write([]byte(w.name + "/" + stream))
	return &generator{w: w, g: g, seed: seed, rnd: rand.New(rand.NewPCG(seed, h.Sum64()))}
}

// generate returns the workload's request budget for a run of the given
// length. The same workload, geography, seed and length always give the
// same requests in the same order. The stream is stratified so that the
// seed changes which requests are sent but not how much work they are:
// every block of the stream holds each op kind in its exact share, in a
// seeded order, and targets cycle through the regions in seeded
// permutations.
func generate(w workload, g geography, seed uint64, seconds int) []op {
	gen := newGenerator(w, g, seed, "main")
	d := 0
	for _, m := range w.mix {
		d = gcd(d, m)
	}
	var block []opKind
	for k, m := range w.mix {
		for j := 0; j < m/d; j++ {
			block = append(block, opKind(k))
		}
	}
	n := w.opsPerSecond * seconds
	ops := make([]op, 0, n)
	for len(ops) < n {
		gen.rnd.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, k := range block {
			if len(ops) < n {
				ops = append(ops, gen.op(k))
			}
		}
	}
	return ops
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// generateProbes returns the traced run's extra requests for the op kinds
// the workload's stream lacks. Probe ingests continue the stream's
// virtual clock and ID sequence.
func generateProbes(w workload, g geography, seed uint64, streamRecords int) []op {
	gen := newGenerator(w, g, seed, "probe")
	gen.records = streamRecords
	var ops []op
	for k := opKind(0); k < numKinds; k++ {
		if w.mix[k] != 0 {
			continue
		}
		for i := 0; i < probeOps; i++ {
			ops = append(ops, gen.op(k))
		}
	}
	return ops
}

// draw deals the next region from a deck that is refilled with a seeded
// permutation of from whenever it runs out.
func (gen *generator) draw(deck *[]string, from []string) string {
	if len(*deck) == 0 {
		*deck = append((*deck)[:0], from...)
		gen.rnd.Shuffle(len(*deck), func(i, j int) { (*deck)[i], (*deck)[j] = (*deck)[j], (*deck)[i] })
	}
	r := (*deck)[0]
	*deck = (*deck)[1:]
	return r
}

func (gen *generator) op(k opKind) op {
	switch k {
	case opIngest:
		return gen.ingest()
	case opScore:
		return op{kind: k, region: gen.draw(&gen.decks[k], gen.g.all)}
	default:
		return op{kind: k, region: gen.draw(&gen.decks[k], gen.g.counties)}
	}
}

var ingestDatasets = []string{"ndt", "cloudflare"}

// ingest draws one batch of records as an NDJSON body. The benchmark
// writes the wire format itself, so the request bytes do not depend on
// the encoder of the program under test.
func (gen *generator) ingest() op {
	o := op{kind: opIngest, records: batchRecords}
	var b []byte
	for i := 0; i < batchRecords; i++ {
		idx := gen.records
		gen.records++
		id := "pb" + strconv.FormatUint(gen.seed, 36) + "-" + strconv.Itoa(idx)
		if i == 0 {
			o.firstID = id
		}
		at := historyEnd.Add(time.Duration(idx)*recordStep + time.Duration(gen.rnd.Int64N(int64(recordStep))))
		down := 80 * math.Exp(0.8*gen.rnd.NormFloat64())
		up := down * (0.1 + 0.4*gen.rnd.Float64())
		lat := 25 * math.Exp(0.5*gen.rnd.NormFloat64())
		u := gen.rnd.Float64()
		loss := 0.02 * u * u * u

		b = append(b, `{"id":"`...)
		b = append(b, id...)
		b = append(b, `","time":"`...)
		b = at.AppendFormat(b, "2006-01-02T15:04:05.000Z")
		b = append(b, `","dataset":"`...)
		b = append(b, ingestDatasets[gen.rnd.IntN(len(ingestDatasets))]...)
		b = append(b, `","region":"`...)
		b = append(b, gen.g.counties[gen.rnd.IntN(len(gen.g.counties))]...)
		b = append(b, `","download_mbps":`...)
		b = strconv.AppendFloat(b, down, 'f', 3, 64)
		b = append(b, `,"upload_mbps":`...)
		b = strconv.AppendFloat(b, up, 'f', 3, 64)
		b = append(b, `,"latency_ms":`...)
		b = strconv.AppendFloat(b, lat, 'f', 3, 64)
		b = append(b, `,"loss_frac":`...)
		b = strconv.AppendFloat(b, loss, 'f', 6, 64)
		b = append(b, "}\n"...)
	}
	o.body = b
	return o
}
