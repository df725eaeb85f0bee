package main

import (
	"bytes"
	"crypto/sha256"
	"strings"
	"testing"

	"iqb/internal/dataset"
)

// streamBytes serializes every request of a stream: method, path, body.
func streamBytes(ops []op) []byte {
	var b bytes.Buffer
	for i := range ops {
		m, p, body := ops[i].request()
		b.WriteString(m + " " + p + "\n")
		b.Write(body)
	}
	return b.Bytes()
}

func TestSameSeedSameStream(t *testing.T) {
	g, err := loadGeography()
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			a := streamBytes(generate(w, g, 7, 1))
			b := streamBytes(generate(w, g, 7, 1))
			if !bytes.Equal(a, b) {
				t.Fatalf("seed 7 gave two different streams (sha256 %x vs %x)", sha256.Sum256(a), sha256.Sum256(b))
			}
			if c := streamBytes(generate(w, g, 8, 1)); bytes.Equal(a, c) {
				t.Fatal("seeds 7 and 8 gave the same stream")
			}
			pa := streamBytes(generateProbes(w, g, 7, 100))
			if pb := streamBytes(generateProbes(w, g, 7, 100)); !bytes.Equal(pa, pb) {
				t.Fatal("seed 7 gave two different probe streams")
			}
		})
	}
}

func TestStreamShape(t *testing.T) {
	g, err := loadGeography()
	if err != nil {
		t.Fatal(err)
	}
	w := workloads["live_mixed"]
	ops := generate(w, g, 3, 2)
	if len(ops) != 2*w.opsPerSecond {
		t.Fatalf("got %d ops, want %d", len(ops), 2*w.opsPerSecond)
	}
	var counts [numKinds]int
	seen := map[string]bool{}
	for i := range ops {
		o := &ops[i]
		counts[o.kind]++
		if o.kind != opIngest {
			continue
		}
		rs, err := dataset.ReadNDJSON(bytes.NewReader(o.body))
		if err != nil {
			t.Fatalf("op %d: body does not decode: %v", i, err)
		}
		if len(rs) != o.records || rs[0].ID != o.firstID {
			t.Fatalf("op %d: %d records starting %q, want %d starting %q", i, len(rs), rs[0].ID, o.records, o.firstID)
		}
		for _, r := range rs {
			if err := r.Validate(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			if seen[r.ID] {
				t.Fatalf("duplicate record ID %s", r.ID)
			}
			seen[r.ID] = true
			if r.Time.Before(historyEnd) || r.Time.After(historyEnd.AddDate(0, 0, 2)) {
				t.Fatalf("record %s stamped %v, want just past %v", r.ID, r.Time, historyEnd)
			}
			if !strings.HasPrefix(r.Region, "XA-") {
				t.Fatalf("record %s in region %q", r.ID, r.Region)
			}
		}
	}
	// Every tenth of the stream holds the exact mix.
	const parts = 10
	for part := 0; part < parts; part++ {
		var in [numKinds]int
		for _, o := range ops[part*len(ops)/parts : (part+1)*len(ops)/parts] {
			in[o.kind]++
		}
		for k, m := range w.mix {
			if want := m * len(ops) / parts / 100; in[k] != want {
				t.Errorf("tenth %d holds %d %v requests, want exactly %d", part, in[k], opKind(k), want)
			}
		}
	}
	if counts[opTimeseries] != 0 {
		t.Fatalf("live_mixed stream holds %d timeseries requests", counts[opTimeseries])
	}
	for _, k := range []opKind{opIngest, opScore, opRanking} {
		if counts[k] == 0 {
			t.Fatalf("live_mixed stream holds no %v requests", k)
		}
	}
}
