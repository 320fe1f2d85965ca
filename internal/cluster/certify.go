package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"net/url"
	"sync"
	"time"

	"satcheck/internal/certify"
	"satcheck/internal/server"
	"satcheck/internal/store"
)

// handleDualCertify is the cluster face of POST /v1/check?policy=dual: the
// three artifacts are content-addressed into the store, then the two
// certification pipelines are fanned out as pipeline=kernel / pipeline=rup
// sub-requests — to *different* shards whenever the ring has two healthy
// owners to offer, so not even the machine is shared between the checkers —
// and the bare CheckerVerdicts are merged fail-closed at the router with
// certify.Assemble under the router's signing key.
//
// Fail-closed shapes every outcome: a shard dispatch failure becomes an
// "error" verdict inside a signed CERTIFY_FAIL bundle at HTTP 200, never a
// bare 503 a caller could mistake for "try again and it may certify".
func (rt *Router) handleDualCertify(w http.ResponseWriter, r *http.Request) {
	if rt.certSigner == nil {
		rt.writeJSON(w, http.StatusInternalServerError,
			&server.ErrorResponse{Error: "certification signer unavailable"})
		return
	}
	parts, err := rt.ingest(w, r, "formula", "trace|lrat", "drat")
	if err != nil {
		rt.rejectIngest(w, err)
		return
	}
	defer rt.unpin(parts)
	formula, kernel, drat := parts[0], parts[1], parts[2]

	h := certify.Hashes{Instance: formula.hash.String(), DRAT: drat.hash.String()}
	if kernel.field == "trace" {
		h.Trace = kernel.hash.String()
	} else {
		h.LRAT = kernel.hash.String()
	}

	// Forward only the knobs the shard pipelines understand.
	sub := url.Values{}
	sub.Set("policy", "dual")
	for _, key := range []string{"mem_limit_mb", "timeout_ms"} {
		if v := r.URL.Query().Get(key); v != "" {
			sub.Set(key, v)
		}
	}

	kernelOwners := rt.ring.Owners(JobKey(formula.hash, kernel.hash), 0)
	rupOwners := rt.ring.Owners(JobKey(formula.hash, drat.hash), 0)
	// The kernel side will land on its first healthy owner; steer the rup
	// side away from that shard when the ring can offer an alternative.
	avoid := rt.firstHealthy(kernelOwners)

	verdicts := make([]certify.CheckerVerdict, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		verdicts[0] = rt.dispatchPipeline(r.Context(), certify.PipelineKernel, sub, []storePart{formula, kernel}, kernelOwners, "")
	}()
	go func() {
		defer wg.Done()
		verdicts[1] = rt.dispatchPipeline(r.Context(), certify.PipelineRUP, sub, []storePart{formula, drat}, rupOwners, avoid)
	}()
	wg.Wait()

	bundle := certify.Assemble(h, verdicts, rt.certSigner, time.Now())
	rt.metrics.ObserveCertification(bundle.Certified())
	rt.log.Info("certification", "outcome", bundle.Outcome, "reason", bundle.Reason,
		"kernel_shard", verdicts[0].Shard, "rup_shard", verdicts[1].Shard)
	rt.writeJSON(w, http.StatusOK, bundle)
}

// firstHealthy reports the shard the dispatch loop would pick first.
func (rt *Router) firstHealthy(owners []string) string {
	for _, id := range owners {
		if sh, ok := rt.shard(id); ok && sh.Healthy() {
			return id
		}
	}
	return ""
}

// dispatchPipeline runs one certification pipeline as a pipeline=
// sub-request through dispatch and maps the result onto a CheckerVerdict.
// Every failure mode degrades to an "error" verdict the router merges
// fail-closed; this function never fails open and never panics the request.
func (rt *Router) dispatchPipeline(ctx context.Context, pipeline string, query url.Values, parts []storePart, owners []string, avoid string) certify.CheckerVerdict {
	errVerdict := func(detail string) certify.CheckerVerdict {
		return certify.CheckerVerdict{Pipeline: pipeline, Verdict: certify.VerdictError, Detail: detail}
	}
	q := maps.Clone(query)
	q.Set("pipeline", pipeline)
	res, err := rt.dispatch(ctx, owners, avoid, q.Encode(), parts)
	switch {
	case errors.Is(err, errNoShard):
		return errVerdict("no healthy shard available")
	case errors.Is(err, store.ErrCorrupt):
		return errVerdict("stored payload failed hash verification before dispatch; resubmit")
	case err != nil:
		return errVerdict(err.Error())
	case res.status != http.StatusOK:
		return errVerdict(fmt.Sprintf("shard %s: HTTP %d: %s", res.shard, res.status, shardErrorText(res.body, res.status)))
	}
	var v certify.CheckerVerdict
	if err := json.Unmarshal(res.body, &v); err != nil {
		return errVerdict(fmt.Sprintf("shard %s answered undecodable verdict: %v", res.shard, err))
	}
	v.Shard = res.shard
	return v
}
