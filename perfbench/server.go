package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running iqbserver process.
type server struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{}
	err    error // the process's exit status, once exited is closed
	// ready is how long the boot took from exec to the first 200 on
	// /v1/health.
	ready time.Duration
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// bootServer starts iqbserver on dataDir and waits until it answers
// /v1/health. Snapshot triggers are pinned so none fires inside a timed
// phase: the interval stays at its five-minute default, longer than any
// run, and the WAL-growth trigger stays off.
func bootServer(bin, dataDir, logPath string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin,
		"-addr", addr,
		"-seed", strconv.Itoa(worldSeed),
		"-tests", strconv.Itoa(worldTests),
		"-data-dir", dataDir,
		"-snapshot-interval", "5m",
		"-snapshot-wal-bytes", "0",
	)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, url: "http://" + addr, exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting iqbserver: %w", err)
	}
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := start.Add(150 * time.Second)
	for {
		resp, err := client.Get(s.url + "/v1/health")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.ready = time.Since(start)
				client.CloseIdleConnections()
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("iqbserver exited during boot (%v); see %s", s.err, logPath)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("iqbserver not ready after %v; see %s", time.Since(start), logPath)
		}
	}
}

// stop sends SIGTERM and waits for a clean exit.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-s.exited:
	case <-time.After(60 * time.Second):
		s.kill()
		return fmt.Errorf("iqbserver ignored SIGTERM for 60s")
	}
	if s.err != nil {
		return fmt.Errorf("iqbserver exited with %v", s.err)
	}
	return nil
}

// kill ends the process unconditionally and waits for it.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

// procStats is the server's resource use as the kernel reports it.
type procStats struct {
	cpu   time.Duration // user + system
	hwmKB int64         // VmHWM, the peak resident set
}

func (s *server) stats() (procStats, error) {
	pid := strconv.Itoa(s.cmd.Process.Pid)
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return procStats{}, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(stat[bytes.LastIndexByte(stat, ')')+2:])
	f := strings.Fields(rest)
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	// Linux reports both in USER_HZ ticks, 100 per second.
	st := procStats{cpu: time.Duration(utime+stime) * 10 * time.Millisecond}
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return procStats{}, err
	}
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		if k == "VmHWM" {
			st.hwmKB = n
		}
	}
	return st, nil
}

// cpu is the server's CPU time so far, or 0 if it cannot be read.
func (s *server) cpu() time.Duration {
	st, err := s.stats()
	if err != nil {
		return 0
	}
	return st.cpu
}

// get fetches a path and returns its body, failing on any status but 200.
func get(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// records asks the server how many records it holds.
func (s *server) records(ctx context.Context) (int, error) {
	body, err := get(ctx, httpClient, s.url+"/v1/health")
	if err != nil {
		return 0, err
	}
	var h struct {
		Records int `json:"records"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return 0, fmt.Errorf("decoding /v1/health: %w", err)
	}
	return h.Records, nil
}

// scrape reads /metrics into a map from series (name plus labels) to
// value.
func (s *server) scrape(ctx context.Context) (map[string]float64, error) {
	body, err := get(ctx, httpClient, s.url+"/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// digestPaths are the bodies whose hash pins a run's final state: the
// ranking, the score of every region, and weekly series of two counties.
func digestPaths(g geography) []string {
	paths := []string{"/v1/ranking"}
	for _, r := range g.all {
		paths = append(paths, "/v1/score?region="+r)
	}
	for _, c := range g.counties[:2] {
		paths = append(paths, "/v1/timeseries?region="+c+"&window=168h")
	}
	return paths
}

// digest hashes the digest bodies fetched through fetch. Every record
// batch commutes in the store, so the digest depends on which records
// were acknowledged, not on the order the clients' requests landed in.
func digest(g geography, fetch func(path string) ([]byte, error)) (string, error) {
	h := sha256.New()
	for _, p := range digestPaths(g) {
		body, err := fetch(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\n%d\n", p, len(body))
		h.Write(body)
	}
	return hex.EncodeToString(h.Sum(nil)[:12]), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
