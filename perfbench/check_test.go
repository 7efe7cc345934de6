package main

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pmem"
	"repro/internal/pstruct"
	"repro/internal/ptm"
)

// The tests below feed each independent check a deliberately corrupted
// result and require it to fail, so a run that reports correct=true has
// really passed them.

func TestValueCheckCatchesCorruption(t *testing.T) {
	v := makeValue("k0000042", 1, 77)
	if len(v) != valueLen {
		t.Fatalf("value is %d bytes, want %d", len(v), valueLen)
	}
	if err := expectValue(v, "k0000042", 1, 77); err != nil {
		t.Fatalf("intact value rejected: %v", err)
	}
	flipped := bytes.Clone(v)
	flipped[30] ^= 1
	cases := map[string]error{
		"flipped byte":  expectValue(flipped, "k0000042", 1, 77),
		"truncated":     expectValue(v[:99], "k0000042", 1, 77),
		"other key":     expectValue(v, "k0000043", 1, 77),
		"other conn":    expectValue(v, "k0000042", 0, 77),
		"stale stamp":   expectValue(makeValue("k0000042", 1, 76), "k0000042", 1, 77),
		"future stamp":  expectValue(makeValue("k0000042", 1, 78), "k0000042", 1, 77),
		"counter off":   expectCounter([]byte("41"), "ctr:0:0", 42),
		"counter text":  expectCounter([]byte("x"), "ctr:0:0", 42),
		"pair unequal":  expectPair(makeValue("a", 0, 5), makeValue("b", 0, 6), "a", "b", 0, 5),
		"pair stale":    expectPair(makeValue("a", 0, 4), makeValue("b", 0, 4), "a", "b", 0, 5),
		"pair half bad": expectPair(makeValue("a", 0, 5), flipped, "a", "b", 0, 5),
	}
	for name, err := range cases {
		if !errors.Is(err, errBadValue) {
			t.Errorf("%s: check passed (err=%v)", name, err)
		}
	}
}

func testClient() *kvClient {
	c := &kvClient{id: 0, window: 1, keys: []string{"k0", "k2"}, lastSeq: []uint64{3, 0},
		ctrKeys: []string{"ctr:0:0"}, ctrVal: []int64{5}, ctrFails: []int64{0},
		pairA: []string{"pair:0:0:a"}, pairB: []string{"pair:0:0:b1"}, pairSeq: []uint64{4}}
	for i := range c.hist {
		c.hist[i] = NewHist()
	}
	return c
}

// store returns the contents a correct server would hold for testClient.
func store() map[string][]byte {
	return map[string][]byte{
		"k0": makeValue("k0", 0, 3), "k2": makeValue("k2", 0, 0), "ctr:0:0": []byte("5"),
		"pair:0:0:a": makeValue("pair:0:0:a", 0, 4), "pair:0:0:b1": makeValue("pair:0:0:b1", 0, 4),
	}
}

func getter(m map[string][]byte) func([]byte) ([]byte, error) {
	return func(k []byte) ([]byte, error) {
		v, ok := m[string(k)]
		if !ok {
			return nil, errors.New("not found")
		}
		return v, nil
	}
}

func TestVerifyCatchesLostAndTornWrites(t *testing.T) {
	if _, errs := testClient().verify(getter(store())); len(errs) != 0 {
		t.Fatalf("intact store rejected: %v", errs)
	}
	corrupt := map[string]func(m map[string][]byte){
		"lost write":     func(m map[string][]byte) { m["k0"] = makeValue("k0", 0, 2) },
		"missing key":    func(m map[string][]byte) { delete(m, "k2") },
		"lost increment": func(m map[string][]byte) { m["ctr:0:0"] = []byte("4") },
		"torn pair":      func(m map[string][]byte) { m["pair:0:0:b1"] = makeValue("pair:0:0:b1", 0, 3) },
	}
	for name, f := range corrupt {
		m := store()
		f(m)
		if _, errs := testClient().verify(getter(m)); len(errs) == 0 {
			t.Errorf("%s: verify passed", name)
		}
	}
}

func TestReplyChecksCatchWrongAnswers(t *testing.T) {
	wrong := []struct {
		p    kvPending
		line string
	}{
		{kvPending{op: opGet, idx: 0, expect: 3, replies: 1}, "VALUE " + string(makeValue("k0", 0, 2)) + "\n"},
		{kvPending{op: opGet, idx: 0, expect: 3, replies: 1}, "NOTFOUND\n"},
		{kvPending{op: opIncr, idx: 0, expect: 6, replies: 1}, "INT 7\n"},
		{kvPending{op: opSet, idx: 1, expect: 9, replies: 1}, "QUEUED 1\n"},
		{kvPending{op: opMulti, idx: 0, expect: 9, replies: 1}, "OK 1\n"},
	}
	for _, w := range wrong {
		c := testClient()
		p := w.p
		if !c.reply(&p, []byte(w.line)) || c.bad != 1 {
			t.Errorf("%s answered %q: %d problems recorded", kvOpNames[w.p.op], w.line, c.bad)
		}
	}
	c := testClient()
	p := kvPending{op: opGet, idx: 0, expect: 3, replies: 1}
	if c.reply(&p, []byte("VALUE "+string(makeValue("k0", 0, 3))+"\n")); c.bad != 0 {
		t.Fatalf("correct GET reply rejected: %v", c.problems)
	}
	p = kvPending{op: opSet, idx: 0, expect: 3, prev: 2, replies: 1}
	if c.reply(&p, []byte("ERR boom\n")); c.ops[opSet].failed != 1 || c.bad != 0 || c.lastSeq[0] != 2 {
		t.Fatalf("failed SET: failed=%d bad=%d lastSeq=%d", c.ops[opSet].failed, c.bad, c.lastSeq[0])
	}
}

func TestVerifyMapCatchesDivergence(t *testing.T) {
	eng, err := core.New(1<<20, core.Config{Variant: core.RomLog})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var m *pstruct.HashMap
	model := map[uint64]uint64{}
	err = eng.Update(func(tx ptm.Tx) error {
		if m, err = pstruct.NewHashMap(tx, mapRoot); err != nil {
			return err
		}
		for k := uint64(0); k < 100; k++ {
			model[k] = mapValue(k, 0)
			if _, err := m.Put(tx, k, model[k]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyMap(eng, m, model); err != nil {
		t.Fatalf("intact map rejected: %v", err)
	}
	model[7] = mapValue(7, 1)
	if verifyMap(eng, m, model) == nil {
		t.Error("stale value passed")
	}
	model[7] = mapValue(7, 0)
	model[1000] = 1
	if verifyMap(eng, m, model) == nil {
		t.Error("missing key passed")
	}
	delete(model, 1000)
	delete(model, 3)
	if verifyMap(eng, m, model) == nil {
		t.Error("extra key passed")
	}
}

// TestCrashRecoveryCheck runs the kv crash path: the reopened store must
// pass the post-crash check, and the same check must fail once a key is
// overwritten behind the record's back.
func TestCrashRecoveryCheck(t *testing.T) {
	e, err := setupKV(3, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.segment(e.plain, segment/4, true); err != nil {
		t.Fatal(err)
	}
	imgs, err := e.crashImages()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.close(); err != nil {
		t.Fatal(err)
	}
	devs := make([]*pmem.Device, len(imgs))
	for i, img := range imgs {
		devs[i] = pmem.FromImage(img, pmem.Model{})
	}
	st, _, err := recoverKV(devs, imgs)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r := newResult("kv-write")
	if e.verifyKV(r, "reopen", st.Get); !r.correct {
		t.Fatalf("recovered store rejected: %v", r.problems)
	}
	k := e.clients[1].keys[5]
	if err := st.Put([]byte(k), makeValue(k, 1, 1<<40)); err != nil {
		t.Fatal(err)
	}
	if e.verifyKV(r, "reopen", st.Get); r.correct {
		t.Fatal("overwritten key passed the post-crash check")
	}
}

// TestRunsReportEveryMetric runs each workload briefly, untraced and
// traced, and checks the result is correct, complete and that the traced
// ledgers add up.
func TestRunsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadOrder {
		for _, trace := range []bool{false, true} {
			r, err := workloads[w](runConfig{workload: w, seed: 5, seconds: 2, trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			attempted, failed := r.totals()
			if !r.correct || failed != 0 || attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d %v", w, trace, r.correct, attempted, failed, r.problems)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			var out strings.Builder
			if err := r.print(&out, defs); err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !trace {
				for _, d := range endToEnd {
					if v := r.metrics[d.name]; !(v > 0) {
						t.Errorf("%s: %s = %v, want > 0", w, d.name, v)
					}
				}
				continue
			}
			ledger := r.metrics["server.request_us"]
			residual := r.metrics["ledger.server_residual_us"]
			if w == "ptm-map" {
				ledger = r.metrics["core.update_us"]
				residual = r.metrics["ledger.core_residual_us"]
			}
			if !(ledger > 0) || math.Abs(residual) > ledger {
				t.Errorf("%s: ledger total %v, residual %v", w, ledger, residual)
			}
		}
	}
}
