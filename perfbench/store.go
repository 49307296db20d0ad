package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"oscachesim/internal/campaign"
	"oscachesim/internal/core"
	"oscachesim/internal/store"
)

// fixtureSeeds is how many daemonGrid grids, past the request
// universe's, the pre-written store log covers.
const fixtureSeeds = 2

// storeProbeReps is how many fresh stores the store probe fills.
const storeProbeReps = 5

// fixtureSet is what the parent prepares, outside every timed window,
// for the reps that need it.
type fixtureSet struct {
	// Log is a result-store log of real records: the outcomes of
	// daemonGrid grids the request sequences never draw from, so the
	// daemon replays it at set-up without it answering any request.
	Log string `json:"log"`
	// Keys are the log's record keys.
	Keys []string `json:"keys"`
	// Refs holds core.Run's counters for every key of every variant's
	// daemon-mix request sequence, to check each job's result against.
	Refs map[string]summary `json:"refs"`
	// RefDigests holds, per variant, the digest a correct daemon-mix
	// rep reports.
	RefDigests []string `json:"ref_digests"`
}

const fixtureFile = "fixtures.json"

// prepareFixtures writes the fixture set into dir.
func prepareFixtures(ctx context.Context, seed int64, dir string) (*fixtureSet, error) {
	fx := &fixtureSet{Log: filepath.Join(dir, "store", "results.log"), Refs: map[string]summary{}}
	st, err := store.Open(filepath.Dir(fx.Log), nil)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	for k := daemonSeeds; k < daemonSeeds+fixtureSeeds; k++ {
		plan, err := campaign.NewPlan(daemonGrid(input{Seed: seed}, k))
		if err != nil {
			return nil, err
		}
		for j, cfg := range plan.Unique {
			o, err := core.Run(ctx, cfg)
			if err != nil {
				return nil, err
			}
			if err := st.Put(store.RecordOf(plan.UniqueKeys[j], o)); err != nil {
				return nil, err
			}
			fx.Keys = append(fx.Keys, plan.UniqueKeys[j])
		}
	}

	for v := 0; v < variants; v++ {
		in := input{Seed: seed, Variant: v}
		cells, err := planDaemon(in, nil, 0)
		if err != nil {
			return nil, err
		}
		labels := map[string]summary{}
		for _, c := range daemonSequence(in, cells, daemonRequests) {
			if _, ok := fx.Refs[c.Key]; !ok {
				o, err := core.Run(ctx, c.Cfg)
				if err != nil {
					return nil, err
				}
				fx.Refs[c.Key] = summaryOf(o)
			}
			labels[coordLabel(c)] = fx.Refs[c.Key]
		}
		fx.RefDigests = append(fx.RefDigests, digest(labels))
	}

	b, err := json.Marshal(fx)
	if err != nil {
		return nil, err
	}
	return fx, os.WriteFile(filepath.Join(dir, fixtureFile), b, 0o644)
}

func loadFixtures(dir string) (*fixtureSet, error) {
	b, err := os.ReadFile(filepath.Join(dir, fixtureFile))
	if err != nil {
		return nil, err
	}
	var fx fixtureSet
	return &fx, json.Unmarshal(b, &fx)
}

// storeProbe measures the store layer directly: store.Open replaying
// the fixture log, then store.Put of its real records into a fresh
// temp-dir store, storeProbeReps times.
func storeProbe(rep *repReport, tr *tracer, fixtures string) {
	rep.Attempted++
	fx, err := loadFixtures(fixtures)
	if err != nil {
		rep.fail("store probe: %v", err)
		return
	}
	root := tr.begin(0, benchLayer, "store-probe")
	defer tr.end(root)
	var replay, putUS, putMBps []float64
	for i := 0; i < storeProbeReps; i++ {
		t0 := time.Now()
		id := tr.begin(root, "store", "Open")
		src, err := store.Open(filepath.Dir(fx.Log), nil)
		tr.end(id)
		if err != nil {
			rep.fail("store probe: %v", err)
			return
		}
		replay = append(replay, float64(src.Stats().Replayed)/time.Since(t0).Seconds())
		recs := make([]*store.Record, 0, len(fx.Keys))
		for _, k := range fx.Keys {
			if r := src.Get(k); r != nil {
				recs = append(recs, r)
			}
		}
		src.Close()
		if len(recs) != len(fx.Keys) {
			rep.fail("store probe: replay found %d of %d records", len(recs), len(fx.Keys))
			return
		}

		dir, err := os.MkdirTemp("", "perfbench-store-")
		if err != nil {
			rep.fail("store probe: %v", err)
			return
		}
		dst, err := store.Open(dir, nil)
		if err != nil {
			os.RemoveAll(dir)
			rep.fail("store probe: %v", err)
			return
		}
		var total time.Duration
		per := make([]float64, 0, len(recs))
		id = tr.begin(root, "store", "Put")
		for _, r := range recs {
			t := time.Now()
			err = dst.Put(r)
			d := time.Since(t)
			if err != nil {
				break
			}
			total += d
			per = append(per, float64(d)/float64(time.Microsecond))
		}
		tr.end(id)
		bytes := dst.Stats().DiskBytes
		if cerr := dst.Close(); err == nil {
			err = cerr
		}
		os.RemoveAll(dir)
		if err != nil {
			rep.fail("store probe: %v", err)
			return
		}
		putUS = append(putUS, median(per))
		putMBps = append(putMBps, float64(bytes)/1e6/total.Seconds())
	}
	rep.setLayer("store.replay_records_per_s", median(replay))
	rep.setLayer("store.put_us", median(putUS))
	rep.setLayer("store.put_mb_per_s", median(putMBps))
}
