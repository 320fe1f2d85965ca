package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"satcheck/internal/server"
	"satcheck/internal/store"
)

// RouterHealth is the JSON body of the router's GET /healthz.
type RouterHealth struct {
	Status      string        `json:"status"` // "ok" | "draining"
	RingSize    int           `json:"ring_size"`
	Shards      []ShardHealth `json:"shards"`
	JobsQueued  int           `json:"jobs_queued"`
	JobsRunning int           `json:"jobs_running"`
	StoreBlobs  int           `json:"store_blobs"`
}

// ShardHealth is one shard's row in RouterHealth.
type ShardHealth struct {
	ID      string `json:"id"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	OnRing  bool   `json:"on_ring"`
	Local   bool   `json:"local"`
}

// JoinRequest is the body of POST /cluster/join and /cluster/leave.
type JoinRequest struct {
	ID  string `json:"id"`
	URL string `json:"url,omitempty"`
}

// JoinResponse answers join/leave.
type JoinResponse struct {
	OK       bool `json:"ok"`
	RingSize int  `json:"ring_size"`
}

// JobSubmitResponse is the 202 body of POST /v1/jobs.
type JobSubmitResponse struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Class     string `json:"class"`
	StatusURL string `json:"status_url"`
}

// JobStatusResponse is the body of GET /v1/jobs/{id} and of webhook
// callbacks. Terminal done jobs embed the owning shard's CheckResponse
// verbatim under "check".
type JobStatusResponse struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	Class    string          `json:"class"`
	Tenant   string          `json:"tenant,omitempty"`
	Shard    string          `json:"shard,omitempty"`
	Attempts int             `json:"attempts"`
	Created  time.Time       `json:"created"`
	Updated  time.Time       `json:"updated"`
	Check    json.RawMessage `json:"check,omitempty"`
	Error    string          `json:"error,omitempty"`
}

func jobStatus(rec *store.JobRecord) *JobStatusResponse {
	return &JobStatusResponse{
		ID:       rec.ID,
		State:    rec.State,
		Class:    rec.Class,
		Tenant:   rec.Tenant,
		Shard:    rec.Shard,
		Attempts: rec.Attempts,
		Created:  rec.Created,
		Updated:  rec.Updated,
		Check:    rec.Response,
		Error:    rec.Error,
	}
}

// parseClass validates the async class= query parameter; async jobs
// default to batch (the sync path is implicitly interactive).
func parseClass(q url.Values) (string, error) {
	switch c := q.Get("class"); c {
	case "", ClassBatch:
		return ClassBatch, nil
	case ClassInteractive:
		return ClassInteractive, nil
	default:
		return "", errors.New("bad class=" + c + " (want interactive or batch)")
	}
}

// parseWebhook validates the async webhook= query parameter.
func parseWebhook(q url.Values) (string, error) {
	wh := q.Get("webhook")
	if wh == "" {
		return "", nil
	}
	u, err := url.Parse(wh)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return "", errors.New("bad webhook= (want an absolute http(s) URL)")
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", errors.New("bad webhook= scheme " + u.Scheme)
	}
	return wh, nil
}

// admit runs the checks shared by both submission paths: drain state,
// tenant quota, and option validation (fail bad options at the router,
// before any bytes are spooled). It reports whether the request may
// proceed, answering w itself when not.
func (rt *Router) admit(w http.ResponseWriter, r *http.Request) bool {
	if rt.draining.Load() {
		rt.metrics.syncRejected.Add(1)
		rt.backpressure(w, http.StatusServiceUnavailable, "router is draining")
		return false
	}
	if !rt.quotas.Allow(r.Header.Get("X-Tenant")) {
		rt.metrics.syncRejected.Add(1)
		rt.metrics.quotaRejected.Add(1)
		rt.backpressure(w, http.StatusTooManyRequests, "tenant quota exceeded")
		return false
	}
	if _, err := server.ParseJobOptions(r.URL.Query()); err != nil {
		rt.badRequest(w, err.Error())
		return false
	}
	return true
}

// handleSyncCheck proxies POST /v1/check to the payload's ring owner,
// failing over to the next owners on shard errors. The client sees
// exactly the single-zcheckd wire contract plus an X-Zcheckd-Shard
// header naming the shard that answered.
func (rt *Router) handleSyncCheck(w http.ResponseWriter, r *http.Request) {
	if !rt.admit(w, r) {
		return
	}
	switch pol := r.URL.Query().Get("policy"); pol {
	case "":
	case "dual":
		// Fail-closed dual certification: fan the two pipelines out to
		// (preferably distinct) shards and merge at the router (certify.go).
		rt.handleDualCertify(w, r)
		return
	default:
		rt.badRequest(w, fmt.Sprintf("unknown policy %q (want dual)", pol))
		return
	}
	parts, err := rt.ingest(w, r, "formula", "trace")
	if err != nil {
		rt.rejectIngest(w, err)
		return
	}
	defer rt.unpin(parts)

	owners := rt.ring.Owners(JobKey(parts[0].hash, parts[1].hash), 0)
	res, err := rt.dispatch(r.Context(), owners, "", r.URL.RawQuery, parts)
	if err != nil {
		rt.metrics.syncRejected.Add(1)
		if errors.Is(err, store.ErrCorrupt) {
			// The stored payload failed read-back verification: quarantined,
			// never checked. The client must resubmit; a verdict from corrupt
			// bytes is the one thing this path may never produce.
			rt.backpressure(w, http.StatusServiceUnavailable,
				"stored payload failed hash verification; resubmit")
			return
		}
		rt.backpressure(w, http.StatusServiceUnavailable, "no healthy shard available")
		return
	}
	rt.metrics.syncChecks.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Zcheckd-Shard", res.shard)
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// handleSubmitJob accepts POST /v1/jobs: ingest, persist a queued
// JobRecord, answer 202 with the job ID, and let the dispatcher run it.
func (rt *Router) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	if !rt.admit(w, r) {
		return
	}
	q := r.URL.Query()
	if q.Get("policy") != "" {
		rt.badRequest(w, "policy=dual certification is synchronous-only; use POST /v1/check")
		return
	}
	class, err := parseClass(q)
	if err != nil {
		rt.badRequest(w, err.Error())
		return
	}
	webhook, err := parseWebhook(q)
	if err != nil {
		rt.badRequest(w, err.Error())
		return
	}
	parts, err := rt.ingest(w, r, "formula", "trace")
	if err != nil {
		rt.rejectIngest(w, err)
		return
	}
	// The blobs stay pinned until the job reaches a terminal state; the
	// dispatcher owns the unpin from here.
	// Cluster-only parameters are stripped from the forwarded query — the
	// shard would ignore them anyway, but the cache key should not depend
	// on them even accidentally.
	q.Del("class")
	q.Del("webhook")
	now := time.Now().UTC()
	rec := &store.JobRecord{
		ID:          store.NewJobID(),
		Tenant:      r.Header.Get("X-Tenant"),
		Class:       class,
		Query:       q.Encode(),
		Webhook:     webhook,
		FormulaHash: parts[0].hash,
		ProofHash:   parts[1].hash,
		State:       store.StateQueued,
		Created:     now,
		Updated:     now,
	}
	if err := rt.store.PutJob(rec); err != nil {
		rt.unpin(parts)
		rt.writeJSON(w, http.StatusInternalServerError,
			&server.ErrorResponse{Error: "persisting job: " + err.Error()})
		return
	}
	rt.metrics.ObserveJobState(store.StateQueued, class)
	rt.queue.push(rec.ID, class)
	rt.log.Info("job accepted", "job", rec.ID, "class", class, "tenant", rec.Tenant)
	rt.writeJSON(w, http.StatusAccepted, &JobSubmitResponse{
		ID:        rec.ID,
		State:     rec.State,
		Class:     rec.Class,
		StatusURL: "/v1/jobs/" + rec.ID,
	})
}

// handleJobStatus answers GET /v1/jobs/{id} from the persisted record.
func (rt *Router) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	rec, err := rt.store.GetJob(r.PathValue("id"))
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			rt.writeJSON(w, http.StatusNotFound, &server.ErrorResponse{Error: "unknown job"})
			return
		}
		rt.writeJSON(w, http.StatusInternalServerError, &server.ErrorResponse{Error: err.Error()})
		return
	}
	rt.writeJSON(w, http.StatusOK, jobStatus(rec))
}
