// Command perfbench is the repository's end-to-end benchmark. Each run
// boots the real iqbserver binary on a fresh data dir, sends it one
// workload's fixed, seeded request budget from two closed-loop clients,
// checks every answer, and prints its metrics as the last line of
// standard output. With -trace 1 it instead replays the same requests
// in-process through the server's layers and reports per-layer numbers.
//
//	perfbench -server BIN -work DIR -workload NAME -seed N -seconds S -trace 0|1
//
// run.sh builds the server and this program and supplies -server and
// -work; README.md explains the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// setupBoots is how many times a run boots the world from an empty data
// dir; setup_s is the median. setupRetakes bounds the boots taken again
// for steal (see samples.take).
const (
	setupBoots   = 5
	setupRetakes = 2
)

// maxSteal is the share of the machine's CPU time the hypervisor may
// withhold during a measurement. A timed phase past it is thrown away
// and measured again, once, on a fresh boot; a set-up or restart sample
// past it is taken again (see samples.take). Such figures say more about
// the neighbours on the host than about the program. No request of a
// phase is ever left out of its figures.
const maxSteal = 0.05

// samples collects repeated timings of one identical piece of work,
// such as a restart of the same data dir.
type samples struct {
	kept   []float64 // the timings the metric's median is taken over
	steals []float64 // the steal share of every sample taken, kept or not
	// retakes is how many more samples may be taken in place of ones
	// past maxSteal.
	retakes int
}

// take times one sample with f. A sample during which the hypervisor
// withheld more than maxSteal of the CPU is discarded and taken again
// while retakes remain; once they run out, every sample is kept.
func (s *samples) take(f func() (float64, error)) error {
	for {
		c0 := readCPUTicks()
		v, err := f()
		if err != nil {
			return err
		}
		steal := stealFrac(c0, readCPUTicks())
		s.steals = append(s.steals, steal)
		if steal <= maxSteal || s.retakes == 0 {
			s.kept = append(s.kept, v)
			return nil
		}
		s.retakes--
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark's caller reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	server, work string
	w            workload
	seed         uint64
	seconds      int
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	runtime.GOMAXPROCS(clients)
	var (
		cfg      config
		name     string
		seed     int64
		traceRun int
	)
	flag.StringVar(&cfg.server, "server", "", "iqbserver binary")
	flag.StringVar(&cfg.work, "work", "", "directory for data dirs, logs and traces")
	flag.StringVar(&name, "workload", "", "workload name")
	flag.Int64Var(&seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "run length; sizes the fixed request budget")
	flag.IntVar(&traceRun, "trace", 0, "1 replays the stream in-process and reports per-layer metrics")
	flag.Parse()
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if cfg.server == "" || cfg.work == "" || cfg.seconds < 1 || seed < 0 || traceRun < 0 || traceRun > 1 {
		return errors.New("need -server, -work, -seconds >= 1, -seed >= 0 and -trace 0 or 1")
	}
	cfg.w, cfg.seed = w, uint64(seed)
	dir := filepath.Join(cfg.work, name+"-"+strconv.Itoa(os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg.work = dir

	ctx := context.Background()
	var (
		res *result
		err error
	)
	if traceRun == 1 {
		res, err = traced(ctx, cfg)
	} else {
		res, err = measured(ctx, cfg)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// opReport summarises one op kind's latencies for the detail line.
type opReport struct {
	N        int     `json:"n"`
	Failed   int     `json:"failed"`
	P50      float64 `json:"p50_ms"`
	Tail     float64 `json:"tail_ms"`
	TailQ    float64 `json:"tail_quantile"`
	Attempts int     `json:"attempted"`
}

func reportOps(r *loadResult) map[string]opReport {
	out := map[string]opReport{}
	for k := opKind(0); k < numKinds; k++ {
		l, attempted := r.kind(k)
		if attempted == 0 {
			continue
		}
		s := l.sorted()
		q := tailQuantile(len(s))
		out[k.String()] = opReport{N: len(s), Failed: attempted - len(s), Attempts: attempted, P50: s.at(0.5), Tail: s.at(q), TailQ: q}
	}
	return out
}

// printDetail writes a human-readable JSON line ahead of the result.
func printDetail(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Println(string(b))
}

// measured is the untraced run that produces every end-to-end metric.
func measured(ctx context.Context, cfg config) (*result, error) {
	g, err := loadGeography()
	if err != nil {
		return nil, err
	}
	ops := generate(cfg.w, g, cfg.seed, cfg.seconds)
	logPath := filepath.Join(cfg.work, "server.log")

	// Set-up: boot the world from an empty data dir. This boot serves
	// the timed phase; the other set-up boots alternate with the
	// restarts below.
	setups := samples{retakes: setupRetakes}
	data := filepath.Join(cfg.work, "data")
	var srv *server
	err = setups.take(func() (float64, error) {
		if srv != nil { // a boot past maxSteal
			srv.kill()
			if err := os.RemoveAll(data); err != nil {
				return 0, err
			}
		}
		var err error
		if srv, err = bootServer(cfg.server, data, logPath); err != nil {
			return 0, err
		}
		return srv.ready.Seconds(), nil
	})
	if err != nil {
		return nil, err
	}
	setup := func() (float64, error) {
		dir := filepath.Join(cfg.work, "setup")
		s, err := bootServer(cfg.server, dir, logPath)
		if err != nil {
			return 0, err
		}
		if err := s.stop(); err != nil {
			return 0, err
		}
		return s.ready.Seconds(), os.RemoveAll(dir)
	}
	alive := srv
	defer func() {
		if alive != nil {
			alive.kill()
		}
	}()

	var (
		problems []string
		seeded   int
		load     *loadResult
		steals   []float64
	)
	for {
		if seeded, err = srv.records(ctx); err != nil {
			return nil, err
		}
		load = runLoad(ctx, srv.url, ops, srv.cpu)
		steals = append(steals, load.stats().StealFrac)
		if steals[len(steals)-1] <= maxSteal || len(steals) == 2 {
			break
		}
		alive = nil
		srv.kill()
		if err := os.RemoveAll(data); err != nil {
			return nil, err
		}
		if srv, err = bootServer(cfg.server, data, logPath); err != nil {
			return nil, err
		}
		alive = srv
	}
	after, err := srv.stats()
	if err != nil {
		return nil, err
	}
	problems = append(problems, load.problems...)

	// Correctness: every acknowledged record is stored, the final state
	// survives a restart, and the restarted server (whose score cache
	// starts empty) gives the same answers as the one that served the
	// writes.
	stored, err := srv.records(ctx)
	if err != nil {
		return nil, err
	}
	if stored != seeded+load.acked {
		problems = append(problems, fmt.Sprintf("store holds %d records, want %d seeded + %d acknowledged", stored, seeded, load.acked))
	}
	fetch := func(s *server) func(string) ([]byte, error) {
		return func(p string) ([]byte, error) { return get(ctx, httpClient, s.url+p) }
	}
	finalDigest, err := digest(g, fetch(srv))
	if err != nil {
		return nil, err
	}
	disk, err := dirBytes(data)
	if err != nil {
		return nil, err
	}
	// Restarts of the final data dir alternate with the remaining set-up
	// boots. Both sets of samples thus spread over the same stretch of
	// the run, and a slowdown of the host lasting a few seconds cannot
	// move most of either.
	restarts := samples{retakes: cfg.w.restarts / 2}
	for i := 1; i <= cfg.w.restarts; i++ {
		err := restarts.take(func() (float64, error) {
			t0 := time.Now()
			alive = nil
			if err := srv.stop(); err != nil {
				return 0, err
			}
			var err error
			if srv, err = bootServer(cfg.server, data, logPath); err != nil {
				return 0, err
			}
			alive = srv
			return time.Since(t0).Seconds(), nil
		})
		if err != nil {
			return nil, err
		}
		for len(setups.kept)*cfg.w.restarts < i*setupBoots && len(setups.kept) < setupBoots {
			if err := setups.take(setup); err != nil {
				return nil, err
			}
		}
	}
	recovered, err := srv.records(ctx)
	if err != nil {
		return nil, err
	}
	if recovered != stored {
		problems = append(problems, fmt.Sprintf("restart recovered %d records, want %d", recovered, stored))
	}
	restartDigest, err := digest(g, fetch(srv))
	if err != nil {
		return nil, err
	}
	if restartDigest != finalDigest {
		problems = append(problems, fmt.Sprintf("digest %s after restart, %s before", restartDigest, finalDigest))
	}
	alive = nil
	if err := srv.stop(); err != nil {
		return nil, err
	}

	attempted, failed := load.counts()
	phase := load.stats()
	printDetail(map[string]any{
		"workload":       cfg.w.name,
		"seed":           cfg.seed,
		"ops":            reportOps(load),
		"seeded_records": seeded,
		"acked_records":  load.acked,
		"records_per_s":  float64(load.acked) / load.wall().Seconds(),
		"digest":         finalDigest,
		"setup_s":        setups.kept,
		"setup_steals":   setups.steals,
		"restart_s":      restarts.kept,
		"restart_steals": restarts.steals,
		"phase":          phase,
		"phase_steals":   steals,
		"problems":       problems,
	})
	if failed == attempted {
		return nil, fmt.Errorf("no request succeeded: %v", problems)
	}
	return &result{
		Correct:   len(problems) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":               {median(setups.kept), "s"},
			"ops_per_s":             {phase.Rate, "1/s"},
			"op_p50_ms":             {phase.P50, "ms"},
			"op_p99_ms":             {phase.P99, "ms"},
			"restart_s":             {median(restarts.kept), "s"},
			"rss_mb":                {float64(after.hwmKB) / 1024, "MiB"},
			"cpu_ms_per_op":         {phase.CPUPerOp, "ms"},
			"disk_bytes_per_record": {float64(disk) / float64(stored), "B"},
		},
	}, nil
}

// httpClient fetches the correctness bodies.
var httpClient = &http.Client{Timeout: 120 * time.Second}
