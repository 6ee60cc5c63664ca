package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"aegis/internal/serve"
)

// postJobAs submits raw JSON under a tenant and returns the status,
// decoded body and response headers.
func postJobAs(t *testing.T, base, tenant, body string) (int, map[string]any, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(serve.TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode %d response: %v", resp.StatusCode, err)
	}
	return resp.StatusCode, m, resp.Header
}

// seededJob returns a distinct small job spec per seed.
func seededJob(seed int) string {
	return fmt.Sprintf(`{"kind":"blocks","scheme":"aegis:11","block_bits":64,"trials":2,"seed":%d}`, seed)
}

func TestTenantHeaderValidation(t *testing.T) {
	_, base := testServer(t, serve.Options{Workers: 1})
	for _, bad := range []string{"has space", strings.Repeat("x", 65), "sneaky/../path"} {
		code, body, _ := postJobAs(t, base, bad, smallJob)
		if code != http.StatusBadRequest {
			t.Fatalf("tenant %q accepted: %d %v", bad, code, body)
		}
		if body["field"] != serve.TenantHeader {
			t.Fatalf("tenant %q error names field %v, want %s", bad, body["field"], serve.TenantHeader)
		}
	}
	// Absent header falls back to the default tenant.
	code, body, _ := postJobAs(t, base, "", smallJob)
	if code != http.StatusAccepted || body["tenant"] != serve.DefaultTenant {
		t.Fatalf("headerless submit: %d tenant %v", code, body["tenant"])
	}
}

// TestTenantQuotas: per-tenant queue slots and in-flight caps answer
// 429 with Retry-After, without touching other tenants' capacity.
func TestTenantQuotas(t *testing.T) {
	// Unstarted server: everything stays queued, so admission decisions
	// are deterministic.
	s := newServer(t, serve.Options{Workers: 1, QueueDepth: 32, TenantQueueSlots: 2})
	base, _ := rawServer(t, s)

	for i := 0; i < 2; i++ {
		if code, body, _ := postJobAs(t, base, "greedy", seededJob(i+1)); code != http.StatusAccepted {
			t.Fatalf("greedy submit %d: %d %v", i, code, body)
		}
	}
	code, body, hdr := postJobAs(t, base, "greedy", seededJob(3))
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %d %v", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "greedy") {
		t.Fatalf("429 body does not name the tenant: %v", body)
	}
	// Another tenant is unaffected by greedy's full queue.
	if code, body, _ := postJobAs(t, base, "patient", seededJob(4)); code != http.StatusAccepted {
		t.Fatalf("patient submit: %d %v", code, body)
	}

	// In-flight cap, same shape.
	s2 := newServer(t, serve.Options{Workers: 1, QueueDepth: 32, TenantMaxInFlight: 1})
	base2, _ := rawServer(t, s2)
	if code, body, _ := postJobAs(t, base2, "a", seededJob(1)); code != http.StatusAccepted {
		t.Fatalf("first submit: %d %v", code, body)
	}
	code, body, hdr = postJobAs(t, base2, "a", seededJob(2))
	if code != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" {
		t.Fatalf("in-flight breach: %d %v (Retry-After %q)", code, body, hdr.Get("Retry-After"))
	}
}

// startOrder runs every queued job to completion and returns the job
// IDs sorted by StartedAt — the dispatch order with Workers: 1.
func startOrder(t *testing.T, base string, ids []string) []string {
	t.Helper()
	started := map[string]time.Time{}
	for _, id := range ids {
		st := waitDone(t, base, id)
		if st.State != serve.StateDone {
			t.Fatalf("job %s ended %q: %s", id, st.State, st.Error)
		}
		if st.StartedAt == nil {
			t.Fatalf("job %s finished without StartedAt", id)
		}
		started[id] = *st.StartedAt
	}
	order := append([]string(nil), ids...)
	sort.Slice(order, func(i, j int) bool { return started[order[i]].Before(started[order[j]]) })
	return order
}

// TestTenantFairness: a tenant flooding the queue cannot starve another
// tenant's single job — round-robin dispatch starts it within the first
// two slots.
func TestTenantFairness(t *testing.T) {
	s := newServer(t, serve.Options{Workers: 1, QueueDepth: 32, CacheDir: t.TempDir()})
	base, _ := rawServer(t, s)

	var ids []string
	tenantOf := map[string]string{}
	for i := 0; i < 10; i++ {
		code, body, _ := postJobAs(t, base, "flood", seededJob(100+i))
		if code != http.StatusAccepted {
			t.Fatalf("flood submit %d: %d %v", i, code, body)
		}
		id := body["id"].(string)
		ids = append(ids, id)
		tenantOf[id] = "flood"
	}
	code, body, _ := postJobAs(t, base, "solo", seededJob(999))
	if code != http.StatusAccepted {
		t.Fatalf("solo submit: %d %v", code, body)
	}
	soloID := body["id"].(string)
	ids = append(ids, soloID)
	tenantOf[soloID] = "solo"

	s.Start()
	order := startOrder(t, base, ids)
	pos := -1
	for i, id := range order {
		if id == soloID {
			pos = i
		}
	}
	// Fairness bound: at most one flood job (the one already holding
	// the worker) may start ahead of solo's.
	if pos > 1 {
		t.Fatalf("solo job started %dth of %d behind a flooding tenant (order by tenant: %v)",
			pos+1, len(order), tenantsOf(order, tenantOf))
	}
}

// TestTenantWeights: a weight-2 tenant gets two dispatch slots per
// round-robin turn against a weight-1 tenant.
func TestTenantWeights(t *testing.T) {
	s := newServer(t, serve.Options{
		Workers:       1,
		QueueDepth:    32,
		CacheDir:      t.TempDir(),
		TenantWeights: map[string]int{"heavy": 2},
	})
	base, _ := rawServer(t, s)

	var ids []string
	tenantOf := map[string]string{}
	submit := func(tenant string, seed int) {
		code, body, _ := postJobAs(t, base, tenant, seededJob(seed))
		if code != http.StatusAccepted {
			t.Fatalf("%s submit: %d %v", tenant, code, body)
		}
		id := body["id"].(string)
		ids = append(ids, id)
		tenantOf[id] = tenant
	}
	for i := 0; i < 4; i++ {
		submit("heavy", 200+i)
	}
	for i := 0; i < 2; i++ {
		submit("light", 300+i)
	}

	s.Start()
	order := tenantsOf(startOrder(t, base, ids), tenantOf)
	want := []string{"heavy", "heavy", "light", "heavy", "heavy", "light"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Fatalf("dispatch order %v, want %v", order, want)
	}
}

func tenantsOf(ids []string, tenantOf map[string]string) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = tenantOf[id]
	}
	return out
}

// TestTenantDedupScope: identical specs from different tenants are
// distinct jobs; within a tenant they still deduplicate.
func TestTenantDedupScope(t *testing.T) {
	s := newServer(t, serve.Options{Workers: 1, QueueDepth: 32})
	base, _ := rawServer(t, s)

	codeA, bodyA, _ := postJobAs(t, base, "a", smallJob)
	codeB, bodyB, _ := postJobAs(t, base, "b", smallJob)
	if codeA != http.StatusAccepted || codeB != http.StatusAccepted {
		t.Fatalf("cross-tenant same spec: %d and %d, want both 202", codeA, codeB)
	}
	if bodyA["id"] == bodyB["id"] {
		t.Fatalf("tenants share a job: %v", bodyA["id"])
	}
	codeDup, bodyDup, _ := postJobAs(t, base, "a", smallJob)
	if codeDup != http.StatusConflict || bodyDup["id"] != bodyA["id"] {
		t.Fatalf("same-tenant duplicate: %d %v, want 409 pointing at %v", codeDup, bodyDup, bodyA["id"])
	}
}

// TestTenantMetrics: per-tenant counters appear on /metrics after jobs
// flow through.
func TestTenantMetrics(t *testing.T) {
	s := newServer(t, serve.Options{Workers: 1, QueueDepth: 2, CacheDir: t.TempDir()})
	base, _ := rawServer(t, s)

	code, body, _ := postJobAs(t, base, "acme", smallJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	id := body["id"].(string)
	// Overflow the global queue to record a rejection.
	for i := 0; i < 4; i++ {
		postJobAs(t, base, "acme", seededJob(500+i))
	}
	s.Start()
	waitDone(t, base, id)

	text := scrape(t, base)
	for _, want := range []string{
		`aegis_tenant_jobs_total{tenant="acme",state="done"}`,
		`aegis_tenant_jobs_submitted_total{tenant="acme"}`,
		`aegis_tenant_rejections_total{tenant="acme",reason="queue_full"}`,
		"aegis_tenants 1",
		"aegis_open_fds",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}
