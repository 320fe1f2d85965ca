package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"testing"
	"time"

	"satcheck"
	"satcheck/internal/cnf"
	"satcheck/internal/faults"
	"satcheck/internal/harness"
	"satcheck/internal/server"
	"satcheck/internal/store"
	"satcheck/internal/trace"
)

// chaosPayload is one pre-solved corpus entry: a formula plus either a
// genuine proof (valid=true) or a fault-injected mutation whose
// invalidity was established ground-truth by the local breadth-first
// checker before the cluster ever sees it.
type chaosPayload struct {
	name    string
	formula []byte
	trace   []byte
	valid   bool
}

// buildChaosCorpus draws instances from the zfuzz stream distribution
// (harness.StreamInstance — the same workload the single-process checker
// is fuzzed with), keeps the UNSAT ones, and pairs each genuine proof
// with a fault-injected invalid sibling.
func buildChaosCorpus(t testing.TB, nValid int) []chaosPayload {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var out []chaosPayload
	for tries := 0; len(out) < 2*nValid && tries < 400; tries++ {
		ins := harness.StreamInstance(rng)
		run, err := satcheck.SolveWithProof(ins.F, satcheck.SolverOptions{})
		if err != nil || run.Status != satcheck.StatusUnsat {
			continue
		}
		var fb, tb bytes.Buffer
		if err := cnf.WriteDimacs(&fb, ins.F); err != nil {
			t.Fatal(err)
		}
		if err := run.Trace.Replay(trace.NewASCIIWriter(&tb)); err != nil {
			t.Fatal(err)
		}
		out = append(out, chaosPayload{name: ins.Name, formula: fb.Bytes(), trace: tb.Bytes(), valid: true})

		// Invalid sibling: first applicable mutation the local checker
		// refutes. Mutations that happen to be benign at a seed are skipped —
		// the cluster assertion must rest on ground truth, not hope.
		for _, m := range faults.All() {
			bad, ok := faults.Inject(m, run.Trace, rng.Int63())
			if !ok {
				continue
			}
			if _, cerr := satcheck.Check(ins.F, bad, satcheck.BreadthFirst, satcheck.CheckOptions{}); cerr == nil {
				continue
			}
			var bb bytes.Buffer
			if err := bad.Replay(trace.NewASCIIWriter(&bb)); err != nil {
				continue
			}
			out = append(out, chaosPayload{name: ins.Name + "+" + m.Name, formula: fb.Bytes(), trace: bb.Bytes(), valid: false})
			break
		}
	}
	if len(out) < nValid {
		t.Fatalf("corpus too small: %d payloads", len(out))
	}
	return out
}

// verdictOf decodes a shard CheckResponse body.
func verdictOf(t testing.TB, data []byte) string {
	t.Helper()
	var cr server.CheckResponse
	if err := json.Unmarshal(data, &cr); err != nil {
		t.Fatalf("bad check response: %v: %s", err, data)
	}
	return cr.Verdict
}

// assertVerdict is the chaos harness's only hard law: a valid proof may
// never be rejected, an invalid proof may never validate — no matter what
// the cluster is going through.
func assertVerdict(t testing.TB, p *chaosPayload, verdict string) {
	t.Helper()
	if p.valid && verdict != server.VerdictValid {
		t.Errorf("WRONG VERDICT: genuine proof %s answered %q", p.name, verdict)
	}
	if !p.valid && verdict == server.VerdictValid {
		t.Errorf("WRONG VERDICT: fault-injected proof %s validated", p.name)
	}
}

// TestClusterChaosSoak drives a 3-shard cluster through the zfuzz
// instance stream from concurrent sync and async clients while a chaos
// goroutine crash-kills a shard mid-load and later replaces it. The exit
// criteria are the ISSUE's acceptance bar: zero wrong verdicts, every
// async job terminal, and the cluster back at full strength.
func TestClusterChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	corpus := buildChaosCorpus(t, 6)
	rt, ts := newTestRouter(t, Config{
		Shards:          3,
		MaxAttempts:     10,
		RetryBase:       20 * time.Millisecond,
		ProbeInterval:   30 * time.Millisecond,
		DispatchWorkers: 4,
		ShardConfig:     server.Config{Workers: 2},
	})

	type pendingJob struct {
		id      string
		payload *chaosPayload
	}
	var (
		mu      sync.Mutex
		jobs    []pendingJob
		sync200 int
		backoff int
	)

	const clients, rounds = 4, 25
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			crng := rand.New(rand.NewSource(int64(100 + c)))
			for r := 0; r < rounds; r++ {
				p := &corpus[crng.Intn(len(corpus))]
				if crng.Intn(2) == 0 {
					// Synchronous path.
					resp, data := postSync(t, ts, "?method=bf", p.formula, p.trace, nil)
					switch resp.StatusCode {
					case http.StatusOK:
						mu.Lock()
						sync200++
						mu.Unlock()
						assertVerdict(t, p, verdictOf(t, data))
					case http.StatusServiceUnavailable, http.StatusTooManyRequests:
						// Honest backpressure mid-chaos — allowed; a verdict
						// was simply not produced.
						mu.Lock()
						backoff++
						mu.Unlock()
					default:
						t.Errorf("sync %s: unexpected status %d: %s", p.name, resp.StatusCode, data)
					}
				} else {
					// Async path.
					ct, body := multipartBody(t, p.formula, p.trace)
					resp, err := ts.Client().Post(ts.URL+"/v1/jobs?method=bf", ct, body)
					if err != nil {
						t.Errorf("submit: %v", err)
						continue
					}
					var sub JobSubmitResponse
					dec := json.NewDecoder(resp.Body)
					if resp.StatusCode == http.StatusAccepted && dec.Decode(&sub) == nil {
						mu.Lock()
						jobs = append(jobs, pendingJob{id: sub.ID, payload: p})
						mu.Unlock()
					} else if resp.StatusCode != http.StatusServiceUnavailable && resp.StatusCode != http.StatusTooManyRequests {
						t.Errorf("submit %s: status %d", p.name, resp.StatusCode)
					}
					resp.Body.Close()
				}
			}
		}(c)
	}

	// Chaos: crash-kill a shard mid-load, let the prober notice, bring a
	// replacement in, then do it again to a different victim.
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		for round := 0; round < 2; round++ {
			time.Sleep(120 * time.Millisecond)
			shards := rt.shardTable()
			victim := shards[0].ID
			for _, sh := range shards {
				if sh.Healthy {
					victim = sh.ID
					break
				}
			}
			if err := rt.KillShard(victim); err != nil {
				t.Errorf("kill %s: %v", victim, err)
			}
			time.Sleep(250 * time.Millisecond)
			rt.RemoveShard(victim)
			if _, err := rt.AddLocalShard(); err != nil {
				t.Errorf("respawn: %v", err)
			}
		}
	}()
	wg.Wait()
	<-chaosDone

	// Every accepted job must reach a terminal state, and every terminal
	// verdict must be right. A failed job is a lost verdict — with retries
	// and two healthy shards at all times, nothing may fail.
	for _, pj := range jobs {
		js := pollJob(t, ts, pj.id, 60*time.Second)
		if js.State != store.StateDone {
			t.Errorf("job %s (%s) ended %s: %s", pj.id, pj.payload.name, js.State, js.Error)
			continue
		}
		assertVerdict(t, pj.payload, verdictOf(t, js.Check))
	}

	waitFor(t, 10*time.Second, func() bool { return rt.Ring().Len() == 3 })
	if sync200 == 0 || len(jobs) == 0 {
		t.Fatalf("degenerate soak: %d sync answers, %d async jobs", sync200, len(jobs))
	}
	t.Logf("soak: %d sync verdicts, %d backpressure answers, %d async jobs, ring rebalances %d, failovers %d, retries %d",
		sync200, backoff, len(jobs), rt.Ring().Rebalances(),
		rt.Metrics().failovers.Load(), rt.Metrics().retries.Load())
}

// TestClusterSmokeDrain is the CI smoke: 3 shards, mixed sync/async
// traffic, and one graceful SIGTERM-style drain of a shard mid-load. The
// drained shard must finish its in-flight work (no lost jobs), leave the
// ring, and never produce a wrong verdict on the way out.
func TestClusterSmokeDrain(t *testing.T) {
	corpus := buildChaosCorpus(t, 3)
	rt, ts := newTestRouter(t, Config{
		Shards:        3,
		MaxAttempts:   8,
		RetryBase:     20 * time.Millisecond,
		ProbeInterval: 30 * time.Millisecond,
		ShardConfig:   server.Config{Workers: 2},
	})

	var jobIDs []string
	payloadByJob := map[string]*chaosPayload{}
	for i := 0; i < 12; i++ {
		p := &corpus[i%len(corpus)]
		if i%2 == 0 {
			resp, data := postSync(t, ts, "?method=df", p.formula, p.trace, nil)
			if resp.StatusCode == http.StatusOK {
				assertVerdict(t, p, verdictOf(t, data))
			}
		} else {
			id := submitJob(t, ts, "?method=df", p.formula, p.trace)
			jobIDs = append(jobIDs, id)
			payloadByJob[id] = p
		}
		if i == 5 {
			// Mid-load graceful drain — the SIGTERM path.
			victim := rt.shardTable()[0].ID
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := rt.DrainShard(ctx, victim); err != nil {
				t.Errorf("drain %s: %v", victim, err)
			}
			cancel()
			waitFor(t, 5*time.Second, func() bool { return rt.Ring().Len() == 2 })
		}
	}
	for _, id := range jobIDs {
		js := pollJob(t, ts, id, 60*time.Second)
		if js.State != store.StateDone {
			t.Errorf("job %s ended %s: %s", id, js.State, js.Error)
			continue
		}
		assertVerdict(t, payloadByJob[id], verdictOf(t, js.Check))
	}
	if rt.Ring().Len() != 2 {
		t.Fatalf("ring size %d after drain, want 2", rt.Ring().Len())
	}

	// Metrics must reflect the drained shard going unhealthy.
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if !bytes.Contains(buf.Bytes(), []byte(`zcheckd_shard_healthy{shard="shard-1"} 0`)) {
		t.Errorf("drained shard not reported unhealthy:\n%s", buf.String())
	}
}

// TestCorruptBlobNeverDispatched flips a bit in a stored blob between
// submissions and proves the cluster answers with a refusal — never a
// verdict — when its own storage is caught lying.
func TestCorruptBlobNeverDispatched(t *testing.T) {
	corpus := buildChaosCorpus(t, 1)
	p := &corpus[0]
	rt, ts := newTestRouter(t, Config{Shards: 1,
		ShardConfig: server.Config{Workers: 1, CacheEntries: -1}})

	// First pass stores the blobs and produces a verdict.
	resp, data := postSync(t, ts, "", p.formula, p.trace, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	assertVerdict(t, p, verdictOf(t, data))

	// Flip one bit of the proof blob on disk, behind the store's back.
	h := store.HashBytes(p.trace)
	corruptBlobOnDisk(t, rt.Store(), h)

	// The next submission dedups onto the corrupt blob... unless Put
	// detects it. Our store keys writes by content hash, so the re-upload
	// itself re-writes a good copy only if the old one was dropped; go
	// through the dispatch path directly to force a read of the bad blob.
	parts := []storePart{{"formula", store.HashBytes(p.formula)}, {"trace", h}}
	_, err := rt.dispatch(context.Background(), rt.Ring().Owners(JobKey(parts[0].hash, h), 0), "", "", parts)
	if err == nil {
		t.Fatal("dispatch over a corrupt blob produced an answer")
	}
	if rt.Store().Stats().Corruptions == 0 {
		t.Fatal("corruption not detected/quarantined")
	}

	// The blob is quarantined; a fresh submission re-ingests good bytes
	// and the verdict comes back — re-check, never trust.
	resp2, data2 := postSync(t, ts, "", p.formula, p.trace, nil)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmission status %d: %s", resp2.StatusCode, data2)
	}
	assertVerdict(t, p, verdictOf(t, data2))
}

func corruptBlobOnDisk(t testing.TB, st *store.Store, h store.Hash) {
	t.Helper()
	path := st.BlobPath(h)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
