package service

import (
	"context"
	"sync"
)

// tenantTable tracks per-tenant admitted-request counts for the
// admission quota. Tenants are identified by the tenantHeader value;
// the empty tenant (no header) is exempt — it shares only the global
// pool. The table grows one small entry per distinct tenant
// string and is never pruned; tenant identities are expected to be a
// bounded operator-controlled set, not attacker-supplied cardinality
// (the same assumption the per-tenant metric labels make).
type tenantTable struct {
	mu sync.Mutex
	n  map[string]int
}

func newTenantTable() *tenantTable {
	return &tenantTable{n: map[string]int{}}
}

// acquire admits one request for tenant under the limit; ok is false
// when the tenant is at quota.
func (t *tenantTable) acquire(tenant string, limit int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n[tenant] >= limit {
		return false
	}
	t.n[tenant]++
	return true
}

func (t *tenantTable) release(tenant string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n[tenant] > 0 {
		t.n[tenant]--
	}
}

// tenantAcquire applies the per-tenant admission quota. The returned
// release must be called exactly once (it is a no-op when no quota was
// taken).
func (s *Service) tenantAcquire(tenant string) (func(), *Error) {
	if tenant == "" || s.cfg.TenantInflight <= 0 {
		return func() {}, nil
	}
	if !s.tenants.acquire(tenant, s.cfg.TenantInflight) {
		return nil, errOf(KindQuota, "tenant %q is at its admission quota (%d in flight)",
			tenant, s.cfg.TenantInflight)
	}
	return func() { s.tenants.release(tenant) }, nil
}

// tenantKey carries the request's tenant through handler contexts.
type tenantKey struct{}

func withTenant(ctx context.Context, tenant string) context.Context {
	if tenant == "" {
		return ctx
	}
	return context.WithValue(ctx, tenantKey{}, tenant)
}

func tenantFrom(ctx context.Context) string {
	t, _ := ctx.Value(tenantKey{}).(string)
	return t
}
