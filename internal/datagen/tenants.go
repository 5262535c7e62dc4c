// Tenants dataset: the multi-tenant SaaS suite's data shape. A
// relational tenant catalog (plan, per-tenant ticket counter) fronts a
// document collection of support tickets. Ticket placement is heavily
// Zipf-skewed, so tenant 1 is the hot tenant whose catalog row and
// tenant-scoped queries concentrate lock and scan traffic.
package datagen

import (
	"fmt"
	"strconv"

	"udbench/internal/mmvalue"
	"udbench/internal/relational"
	"udbench/internal/txn"
)

// Reference tenant entity counts at scale factor 1.
const (
	BaseTenants = 60
	BaseTickets = 5000
	// TenantZipfTheta skews ticket placement; at 0.9 the top tenant
	// owns a large fraction of all tickets.
	TenantZipfTheta = 0.9
)

// TenantsDataset is the materialized multi-tenant suite dataset.
type TenantsDataset struct {
	Config Config
	// Tenants are relational rows (schema TenantSchema()): id, name,
	// plan, tickets (the per-tenant ticket counter every ticket-open
	// transaction bumps — initialized to the generated base count, so
	// the counter-vs-collection consistency probe starts valid).
	Tenants []mmvalue.Value
	// Tickets are JSON documents (_id TicketID(i)).
	Tickets []mmvalue.Value
}

// TenantSchema returns the relational schema of the tenant catalog.
func TenantSchema() relational.Schema {
	return relational.MustSchema("id",
		relational.Column{Name: "id", Type: relational.TypeInt},
		relational.Column{Name: "name", Type: relational.TypeString},
		relational.Column{Name: "plan", Type: relational.TypeString},
		relational.Column{Name: "tickets", Type: relational.TypeInt},
	)
}

// TenantCounts returns the scaled entity counts for a config.
func TenantCounts(cfg Config) (tenants, tickets int) {
	sf := cfg.ScaleFactor
	if sf < 0.01 {
		sf = 0.01
	}
	scale := func(base int) int {
		n := int(float64(base) * sf)
		if n < 1 {
			n = 1
		}
		return n
	}
	return scale(BaseTenants), scale(BaseTickets)
}

// TicketID renders the document id of generated ticket i (1-based).
func TicketID(i int) string { return fmt.Sprintf("tk%08d", i) }

// SeqOf reads the numeric suffix of a generated order id ("o%08d"),
// clamped to 1. The registry suites feed it to TicketID, SeriesPointKey
// and LogID; every backend must address the same entity for the same
// draw, so this is the only definition.
func SeqOf(orderID string) int {
	if len(orderID) < 2 {
		return 1
	}
	n, err := strconv.Atoi(orderID[1:])
	if err != nil || n < 1 {
		return 1
	}
	return n
}

// GenerateTenants materializes the tenants dataset deterministically.
func GenerateTenants(cfg Config) *TenantsDataset {
	rng := NewRNG(cfg.Seed*0x9e3779b9 + 0x7e4a)
	nTen, nTick := TenantCounts(cfg)
	ds := &TenantsDataset{Config: cfg}
	plans := []string{"free", "team", "business", "enterprise"}
	ticketStatuses := []string{"open", "open", "pending", "closed"} // ~half open
	subjects := []string{"login fails", "billing question", "export broken",
		"rate limited", "slow dashboard", "webhook retries", "sso config"}
	tenantZ := NewZipf(rng, nTen, TenantZipfTheta)
	perTenant := make([]int, nTen+1)
	for i := 1; i <= nTick; i++ {
		tid := tenantZ.Next() + 1
		perTenant[tid]++
		ds.Tickets = append(ds.Tickets, mmvalue.ObjectOf(
			"_id", TicketID(i),
			"tenant_id", tid,
			"status", Pick(rng, ticketStatuses),
			"priority", 1+rng.Intn(5),
			"subject", Pick(rng, subjects),
			"body", fmt.Sprintf("ticket %d for tenant %d: %s", i, tid, Pick(rng, subjects)),
		))
	}
	for i := 1; i <= nTen; i++ {
		ds.Tenants = append(ds.Tenants, mmvalue.ObjectOf(
			"id", i,
			"name", fmt.Sprintf("tenant-%04d", i),
			"plan", Pick(rng, plans),
			"tickets", perTenant[i],
		))
	}
	return ds
}

// NumTenants returns the tenant count.
func (ds *TenantsDataset) NumTenants() int { return len(ds.Tenants) }

// NumTickets returns the generated ticket count.
func (ds *TenantsDataset) NumTickets() int { return len(ds.Tickets) }

// Load copies the dataset into the target stores, in transactions of
// txn.BulkBatch records, and creates the tenant-scoping index every
// inbox query probes.
func (ds *TenantsDataset) Load(t Target) error {
	tenants, err := t.Relational.CreateTable("tenant", TenantSchema())
	if err != nil {
		return err
	}
	if err := tenants.Manager().Bulk(len(ds.Tenants), func(tx *txn.Tx, i int) error {
		return tenants.Insert(tx, ds.Tenants[i])
	}); err != nil {
		return err
	}
	tickets := t.Docs.Collection("tickets")
	if err := tickets.Manager().Bulk(len(ds.Tickets), func(tx *txn.Tx, i int) error {
		return tickets.Insert(tx, ds.Tickets[i])
	}); err != nil {
		return err
	}
	return tickets.CreateIndex("tenant_id")
}
