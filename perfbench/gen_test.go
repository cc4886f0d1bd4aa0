package main

import (
	"testing"

	"repro/internal/datagen"
)

func testData() *datagen.Marketplace {
	cfg := datagen.DefaultMarketplace()
	cfg.Users = users
	return datagen.NewMarketplace(cfg)
}

func TestStreamsAreDeterministic(t *testing.T) {
	data := testData()
	for _, w := range []string{"hot_lookup", "adhoc_join", "write_mix"} {
		reqs, err := workloadStream(data, w, 7, 600)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkDeterminism(data, w, 7, reqs); err != nil {
			t.Errorf("%s: %v", w, err)
		}
	}
}

func TestFreshShapesAreNewAndPrepare(t *testing.T) {
	data := testData()
	reqs, err := workloadStream(data, "adhoc_join", 3, 1000)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := checkFreshShapes(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) < 50 {
		t.Fatalf("%d first-seen shapes in 1000 requests, want about 100", len(fresh))
	}
	d, err := newDeployment(users, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPrepare(d, reqs, fresh); err != nil {
		t.Fatal(err)
	}
}

// TestReferenceAgreesInProcess checks the reference evaluator against the
// in-process layer replay on every read of short streams, writes included.
func TestReferenceAgreesInProcess(t *testing.T) {
	data := testData()
	for _, w := range []string{"hot_lookup", "adhoc_join", "write_mix"} {
		reqs, err := workloadStream(data, w, 11, 300)
		if err != nil {
			t.Fatal(err)
		}
		for i := range reqs {
			reqs[i].check = reqs[i].kind == kindQuery
		}
		d, err := newDeployment(users, false)
		if err != nil {
			t.Fatal(err)
		}
		answers := map[int]answer{}
		l := newLayerReplay(d, reqs, newRecorder(true, 9*len(reqs)), answers)
		for i := range reqs {
			l.step(i)
		}
		if l.c.failed > 0 {
			t.Fatalf("%s: %d requests failed, first: %s", w, l.c.failed, l.c.firstErr)
		}
		if wrong := checkStream(newRefDB(data), reqs, l.c.ok, answers); len(wrong) > 0 {
			for i, why := range wrong {
				t.Errorf("%s: request %d (%s): %s", w, i, reqs[i].sql, why)
			}
		}
	}
}

func TestWriteMixChainsEachUsersOperations(t *testing.T) {
	reqs, err := workloadStream(testData(), "write_mix", 5, 2000)
	if err != nil {
		t.Fatal(err)
	}
	last := map[string]int32{}
	writes := 0
	for i, r := range reqs {
		if prev, ok := last[r.user]; ok && r.dep != prev {
			t.Fatalf("request %d depends on %d, want the user's previous operation %d", i, r.dep, prev)
		}
		last[r.user] = int32(i)
		if r.kind != kindQuery {
			writes++
		}
	}
	if share := float64(writes) / float64(len(reqs)); share < 0.18 || share > 0.22 {
		t.Errorf("write share %.3f, want 0.2", share)
	}
}

func TestSQLRendering(t *testing.T) {
	got := searchQuery("u00007", "audio").sql()
	want := "SELECT t0.pid, t1.dur FROM Orders t0, Visits t1, Products t2 WHERE t0.uid = 'u00007' AND t1.uid = 'u00007' AND t0.pid = t1.pid AND t0.pid = t2.pid AND t2.category = 'audio'"
	if got != want {
		t.Errorf("sql:\n got %s\nwant %s", got, want)
	}
}
