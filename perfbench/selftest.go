package main

import (
	"bytes"
	"fmt"

	"repro/internal/datagen"
	"repro/internal/lang"
	"repro/internal/scenario"
	"repro/internal/service"
)

// checkDeterminism regenerates the stream: the same seed must give
// byte-identical request bodies, and another seed a different stream.
func checkDeterminism(data *datagen.Marketplace, workload string, seed int64, reqs []request) error {
	again, err := workloadStream(data, workload, seed, len(reqs))
	if err != nil {
		return err
	}
	if len(again) != len(reqs) {
		return fmt.Errorf("seed %d: regenerated stream has %d requests, want %d", seed, len(again), len(reqs))
	}
	for i := range reqs {
		if !bytes.Equal(again[i].body, reqs[i].body) || again[i].dep != reqs[i].dep {
			return fmt.Errorf("seed %d: request %d differs between two generations", seed, i)
		}
	}
	other, err := workloadStream(data, workload, seed+1, len(reqs))
	if err != nil {
		return err
	}
	for i := range reqs {
		if !bytes.Equal(other[i].body, reqs[i].body) {
			return nil
		}
	}
	return fmt.Errorf("seeds %d and %d generate the same stream", seed, seed+1)
}

// checkFreshShapes verifies that every request marked first-seen
// canonicalizes to a service.Canonicalize key no earlier request of the
// stream had, and returns those requests' indices.
func checkFreshShapes(reqs []request) ([]int, error) {
	seen := map[string]bool{}
	var fresh []int
	for i := range reqs {
		r := &reqs[i]
		if r.kind != kindQuery {
			continue
		}
		k, err := canonicalKey(r.q)
		if err != nil {
			return nil, err
		}
		if r.fresh {
			if seen[k] {
				return nil, fmt.Errorf("request %d is marked first-seen but its key %s occurred earlier", i, k)
			}
			fresh = append(fresh, i)
		}
		seen[k] = true
	}
	return fresh, nil
}

// checkPrepare verifies that each given request's query passes
// core.System.Prepare (PACB rewriting and planning) on an in-process
// deployment, exactly as the service's cold path prepares it.
func checkPrepare(d *deployment, reqs []request, which []int) error {
	for _, i := range which {
		cq, err := lang.ParseSQL(reqs[i].sql, scenario.LogicalSchema)
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		fp, err := service.Canonicalize(cq)
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		if _, err := d.sys.Prepare(fp.Query, fp.Params...); err != nil {
			return fmt.Errorf("request %d (%s): prepare: %w", i, reqs[i].sql, err)
		}
	}
	return nil
}

// selfTest runs every generator check on a stream before anything is
// timed.
func selfTest(data *datagen.Marketplace, workload string, seed int64, reqs []request) error {
	if err := checkDeterminism(data, workload, seed, reqs); err != nil {
		return err
	}
	fresh, err := checkFreshShapes(reqs)
	if err != nil || len(fresh) == 0 {
		return err
	}
	d, err := newDeployment(data.Cfg.Users, false)
	if err != nil {
		return err
	}
	return checkPrepare(d, reqs, fresh)
}
