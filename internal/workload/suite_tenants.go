package workload

import (
	"udbench/internal/datagen"
	"udbench/internal/document"
	"udbench/internal/mmvalue"
)

// The tenants suite is the multi-tenant SaaS shape: a relational
// tenant catalog over a document collection of support tickets, with
// ticket placement Zipf-skewed so tenant 1 is hot. Ticket opens bump
// the hot tenant's catalog row (lock-striping stress: most writers
// collide on one lock), while tenant-scoped inbox queries ride the
// tenant_id secondary index under lock-free snapshot reads.
func init() {
	RegisterSuite(&Suite{
		Name:        "tenants",
		Description: "zipf multi-tenant SaaS with one hot tenant and tenant-scoped queries (lock striping, lock-free snapshot reads)",
		Generate: func(sf float64, seed uint64) SuiteData {
			// CustomerID draws a tenant id (Zipf -> the hot tenant),
			// OrderID's numeric suffix a ticket sequence.
			ds := datagen.GenerateTenants(datagen.Config{ScaleFactor: sf, Seed: seed})
			return dataset{ds, Info{Customers: ds.NumTenants(), Products: ds.NumTenants(), Orders: ds.NumTickets()}}
		},
		Ops: []SuiteOp{
			{Name: "t_lookup", Weight: 40, Body: tnLookupBody},
			{Name: "t_inbox", Weight: 25, Body: tnInboxBody},
			{Name: "t_open", Weight: 20, Write: true, Body: tnOpenBody},
			{Name: "t_close", Weight: 15, Write: true, Body: tnCloseBody},
			// t_count is the consistency probe: the catalog's ticket
			// counter must match the collection's tenant-scoped count.
			{Name: "t_count", Weight: 0, Body: tnCountBody},
		},
	})
}

// tnLookupBody is the point-read op: one tenant catalog row plus one
// ticket document by id.
func tnLookupBody(st datagen.Target, s session, p Params) (int, error) {
	tbl, err := tableOf(st, "tenant")
	if err != nil {
		return 0, err
	}
	found := 0
	s.Hop()
	if _, ok := tbl.Get(s.RelTx(), p.CustomerID); ok {
		found++
	}
	s.Hop()
	if _, ok := st.Docs.Collection("tickets").Get(s.DocTx(), datagen.TicketID(datagen.SeqOf(p.OrderID))); ok {
		found++
	}
	return found, nil
}

// tnInboxBody is the tenant-scoped query: open tickets of one tenant,
// served off the tenant_id secondary index.
func tnInboxBody(st datagen.Target, s session, p Params) (int, error) {
	s.Hop()
	rows := st.Docs.Collection("tickets").Find(s.DocTx(),
		document.All(document.Eq("tenant_id", p.CustomerID), document.Eq("status", "open")),
		&document.FindOptions{Projection: []string{"_id", "priority"}})
	return len(rows), nil
}

// tnOpenBody opens a ticket: insert the document and bump the tenant's
// catalog counter in one transaction. Zipf tenant selection makes the
// hot tenant's row the suite's write hotspot.
func tnOpenBody(st datagen.Target, s session, p Params) (int, error) {
	tbl, err := tableOf(st, "tenant")
	if err != nil {
		return 0, err
	}
	s.Hop()
	if err := st.Docs.Collection("tickets").Insert(s.DocTx(), mmvalue.ObjectOf(
		"_id", "tk-"+p.FreshID,
		"tenant_id", p.CustomerID,
		"status", "open",
		"priority", p.Rating,
		"subject", "opened at runtime",
		"body", "runtime ticket for tenant "+p.City,
	)); err != nil {
		return 0, err
	}
	s.Hop()
	err = tbl.Update(s.RelTx(), p.CustomerID, func(row mmvalue.Value) (mmvalue.Value, error) {
		obj := row.MustObject()
		n, _ := obj.GetOr("tickets", mmvalue.Int(0)).AsFloat()
		obj.Set("tickets", mmvalue.Int(int64(n)+1))
		return row, nil
	})
	if err != nil {
		return 0, err
	}
	return 1, nil
}

// tnCloseBody closes one generated ticket (status write, no counter
// change — closed tickets stay counted).
func tnCloseBody(st datagen.Target, s session, p Params) (int, error) {
	s.Hop()
	err := st.Docs.Collection("tickets").Update(s.DocTx(), datagen.TicketID(datagen.SeqOf(p.OrderID)),
		func(doc mmvalue.Value) (mmvalue.Value, error) {
			doc.MustObject().Set("status", mmvalue.String("closed"))
			return doc, nil
		})
	if err != nil {
		return 0, err
	}
	return 1, nil
}

// tnCountBody is the weight-0 consistency probe: the tenant catalog's
// ticket counter must equal the collection's tenant-scoped document
// count in any consistent view. Returns 1 on a violation.
func tnCountBody(st datagen.Target, s session, p Params) (int, error) {
	tbl, err := tableOf(st, "tenant")
	if err != nil {
		return 0, err
	}
	s.Hop()
	row, ok := tbl.Get(s.RelTx(), p.CustomerID)
	if !ok {
		return 0, nil
	}
	counted, _ := row.MustObject().GetOr("tickets", mmvalue.Int(0)).AsFloat()
	s.Hop()
	docs := st.Docs.Collection("tickets").Find(s.DocTx(), document.Eq("tenant_id", p.CustomerID),
		&document.FindOptions{Projection: []string{"_id"}})
	if int(counted) != len(docs) {
		return 1, nil
	}
	return 0, nil
}
