package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"satcheck/internal/store"
)

// dispatchQueue is the async dispatcher's two-class priority queue:
// interactive job IDs always pop before batch ones. Items are IDs, not
// records — the persisted JobRecord is the source of truth, reloaded at
// run time, so a queue entry surviving a state change is harmless. The
// same lock counts the jobs a worker holds and those waiting out a retry
// backoff, so idle sees every job on its way to a terminal state.
type dispatchQueue struct {
	mu          sync.Mutex
	cond        *sync.Cond
	interactive []string
	batch       []string
	running     int // popped, attempt not yet done
	backoff     int // waiting to be pushed back by pushAfter
	closed      bool
}

func newDispatchQueue() *dispatchQueue {
	q := &dispatchQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues a job ID; a push after close is dropped (the job is still
// on disk and will be recovered at the next startup).
func (q *dispatchQueue) push(id, class string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	if class == ClassInteractive {
		q.interactive = append(q.interactive, id)
	} else {
		q.batch = append(q.batch, id)
	}
	q.cond.Signal()
}

// pushAfter pushes a job ID once delay has passed (a retry's backoff).
func (q *dispatchQueue) pushAfter(id, class string, delay time.Duration) {
	q.mu.Lock()
	q.backoff++
	q.mu.Unlock()
	time.AfterFunc(delay, func() {
		q.push(id, class)
		q.mu.Lock()
		q.backoff--
		q.mu.Unlock()
	})
}

// pop blocks for the next job ID, interactive first; ok is false once the
// queue is closed and empty. The caller reports the attempt's end to done.
func (q *dispatchQueue) pop() (string, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.interactive) == 0 && len(q.batch) == 0 && !q.closed {
		q.cond.Wait()
	}
	var id string
	switch {
	case len(q.interactive) > 0:
		id, q.interactive = q.interactive[0], q.interactive[1:]
	case len(q.batch) > 0:
		id, q.batch = q.batch[0], q.batch[1:]
	default:
		return "", false
	}
	q.running++
	return id, true
}

// done ends the attempt of a job pop returned.
func (q *dispatchQueue) done() {
	q.mu.Lock()
	q.running--
	q.mu.Unlock()
}

func (q *dispatchQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.interactive) + len(q.batch)
}

func (q *dispatchQueue) runningJobs() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.running
}

// idle reports that no job is queued, running or waiting out a backoff.
func (q *dispatchQueue) idle() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.interactive)+len(q.batch)+q.running+q.backoff == 0
}

func (q *dispatchQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// dispatchWorker drains the job queue until close.
func (rt *Router) dispatchWorker() {
	defer rt.workerWG.Done()
	for {
		id, ok := rt.queue.pop()
		if !ok {
			return
		}
		rt.runJob(id)
		rt.queue.done()
	}
}

// runJob executes one async dispatch attempt for a persisted job: route
// to the ring owner, fail over across owners, and either finish the job,
// schedule a backoff retry, or fail it permanently.
func (rt *Router) runJob(id string) {
	rec, err := rt.store.GetJob(id)
	if err != nil {
		rt.log.Warn("job vanished from store", "job", id, "err", err)
		return
	}
	if rec.Terminal() {
		return
	}
	rec.State = store.StateRunning
	rec.Updated = time.Now().UTC()
	rt.store.PutJob(rec)
	rt.metrics.ObserveJobState(store.StateRunning, rec.Class)

	parts := []storePart{{"formula", rec.FormulaHash}, {"trace", rec.ProofHash}}
	owners := rt.ring.Owners(JobKey(rec.FormulaHash, rec.ProofHash), 0)
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.DispatchTimeout)
	res, err := rt.dispatch(ctx, owners, "", rec.Query, parts)
	cancel()

	switch {
	case err == nil && res.status == http.StatusOK:
		rt.finishJob(rec, store.StateDone, res.shard, "", res.body)
	case err == nil:
		// A definitive non-OK shard answer (e.g. 400 bad formula) will not
		// change on retry: the job fails now, carrying the shard's error.
		rt.finishJob(rec, store.StateFailed, res.shard, shardErrorText(res.body, res.status), nil)
	case errors.Is(err, store.ErrCorrupt):
		// The payload failed its read-back hash check; the blob is
		// quarantined and a verdict was never produced. Retrying cannot
		// help — the bytes are gone.
		rt.finishJob(rec, store.StateFailed, "",
			"stored payload failed hash verification before dispatch; resubmit", nil)
	default:
		rt.retryJob(rec, err)
	}
}

// finishJob moves a job to a terminal state: unpin the payload blobs,
// persist, count, and fire the webhook if one was registered. The unpin
// comes first so that a poller who sees the terminal state never finds
// the payload still pinned.
func (rt *Router) finishJob(rec *store.JobRecord, state, shard, errText string, body []byte) {
	rt.store.Unpin(rec.FormulaHash)
	rt.store.Unpin(rec.ProofHash)
	rec.State = state
	rec.Shard = shard
	rec.Error = errText
	if state == store.StateDone {
		rec.Response = json.RawMessage(body)
	}
	rec.Updated = time.Now().UTC()
	if err := rt.store.PutJob(rec); err != nil {
		rt.log.Error("persisting terminal job state", "job", rec.ID, "err", err)
	}
	rt.metrics.ObserveJobState(state, rec.Class)
	rt.log.Info("job finished", "job", rec.ID, "state", state, "shard", shard,
		"attempts", rec.Attempts+1)
	if rec.Webhook != "" {
		go rt.deliverWebhook(rec)
	}
}

// retryJob re-queues a job after a transient dispatch failure (no healthy
// shard, transport error) with jittered exponential backoff, failing it
// for good once MaxAttempts is spent.
func (rt *Router) retryJob(rec *store.JobRecord, cause error) {
	rec.Attempts++
	if rec.Attempts >= rt.cfg.MaxAttempts {
		rt.finishJob(rec, store.StateFailed, "",
			"dispatch attempts exhausted: "+cause.Error(), nil)
		return
	}
	rec.State = store.StateQueued
	rec.Updated = time.Now().UTC()
	rt.store.PutJob(rec)
	rt.metrics.retries.Add(1)
	delay := retryDelay(rt.cfg.RetryBase, rec.Attempts)
	rt.log.Info("job retry scheduled", "job", rec.ID, "attempt", rec.Attempts,
		"delay", delay, "cause", cause)
	rt.queue.pushAfter(rec.ID, rec.Class, delay)
}

// retryDelay is base·2^(attempt-1) with ±50% jitter, capped at 30s — the
// same shape the zcheck client uses, so router and client never
// synchronize their retries into a thundering herd.
func retryDelay(base time.Duration, attempt int) time.Duration {
	d := base << uint(attempt-1)
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	// Jitter in [0.5d, 1.5d).
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// shardErrorText extracts a shard's error body for the job record.
func shardErrorText(body []byte, status int) string {
	var er struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &er); err == nil && er.Error != "" {
		return er.Error
	}
	return http.StatusText(status)
}

// deliverWebhook POSTs the terminal JobStatusResponse to the job's
// webhook URL, retrying once. Webhook failures never affect the job's
// state — the poll URL stays authoritative.
func (rt *Router) deliverWebhook(rec *store.JobRecord) {
	payload, err := json.Marshal(jobStatus(rec))
	if err != nil {
		rt.metrics.webhooksFailed.Add(1)
		return
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for attempt := 0; attempt < 2; attempt++ {
		resp, err := client.Post(rec.Webhook, "application/json", bytes.NewReader(payload))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode < 300 {
				rt.metrics.webhooksOK.Add(1)
				return
			}
		}
		time.Sleep(250 * time.Millisecond)
	}
	rt.metrics.webhooksFailed.Add(1)
	rt.log.Warn("webhook delivery failed", "job", rec.ID, "url", rec.Webhook)
}
