package server

import (
	"sync"

	"repro/internal/api"
)

// admitter is the simulation tier's two-level token bucket. A request
// holds one global token and one token of its tenant's bucket from
// admission decision to response write. The per-tenant cap is the
// fairness mechanism: a tenant that floods the simulation tier exhausts
// its own bucket and starts shedding with 429s while the global bucket —
// and so every other tenant's share — still has room. Tenants are
// identified by the X-Simserved-Tenant request header; the empty tenant
// is a tenant like any other, so anonymous traffic cannot starve named
// tenants either.
//
// The global bucket is a channel (its length is the exported queue
// depth); per-tenant holds are plain counters under a mutex, deleted at
// zero so the tenant map stays bounded by the number of tenants actually
// in flight.
type admitter struct {
	global    chan struct{}
	perTenant int

	mu    sync.Mutex
	inUse map[string]int
}

// newAdmitter builds an admitter with the given global and per-tenant
// caps. perTenant is clamped into [1, global].
func newAdmitter(global, perTenant int) *admitter {
	if perTenant < 1 {
		perTenant = 1
	}
	if perTenant > global {
		perTenant = global
	}
	return &admitter{
		global:    make(chan struct{}, global),
		perTenant: perTenant,
		inUse:     make(map[string]int),
	}
}

// Acquire takes one token for tenant, or reports which scope is full.
// It never blocks: admission control sheds instead of queueing.
func (a *admitter) Acquire(tenant string) (ok bool, scope string) {
	if !a.reserveTenant(tenant) {
		return false, api.ScopeTenant
	}
	select {
	case a.global <- struct{}{}:
		return true, ""
	default:
		a.releaseTenant(tenant)
		return false, api.ScopeGlobal
	}
}

// Release returns tenant's token.
func (a *admitter) Release(tenant string) {
	<-a.global
	a.releaseTenant(tenant)
}

// reserveTenant takes one slot of tenant's bucket, or reports it full.
func (a *admitter) reserveTenant(tenant string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.inUse[tenant] >= a.perTenant {
		return false
	}
	a.inUse[tenant]++
	return true
}

// releaseTenant returns one slot of tenant's bucket.
func (a *admitter) releaseTenant(tenant string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.dec(tenant)
}

// dec decrements a tenant's hold count, deleting the entry at zero.
// Callers hold a.mu.
func (a *admitter) dec(tenant string) {
	if a.inUse[tenant] <= 1 {
		delete(a.inUse, tenant)
	} else {
		a.inUse[tenant]--
	}
}

// Depth is the number of tokens currently held instance-wide.
func (a *admitter) Depth() int { return len(a.global) }

// Cap is the global bucket capacity.
func (a *admitter) Cap() int { return cap(a.global) }

// TenantCap is the per-tenant bucket capacity.
func (a *admitter) TenantCap() int { return a.perTenant }

// Tenants is the number of tenants currently holding at least one token.
func (a *admitter) Tenants() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.inUse)
}
