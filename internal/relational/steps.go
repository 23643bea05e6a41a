package relational

// StepKind names one stage of a lowered SELECT.
type StepKind int

// Step kinds, in the order Steps emits them.
const (
	StepScan StepKind = iota + 1
	StepJoin
	StepFilter
	StepGroupBy
	StepProject
	StepSort
	StepLimit
)

// Step is one stage of a SELECT; only the fields of its kind are set. Each
// step consumes the output of the one before it. A StepJoin additionally
// scans Table as its build side.
type Step struct {
	Kind StepKind
	// Table is the scanned table (StepScan) or the joined one (StepJoin).
	Table string
	// LeftCol and RightCol are the ON columns as written (StepJoin); the join
	// kernels accept either order.
	LeftCol, RightCol string
	// Pred is the WHERE predicate (StepFilter). A StepScan the filter reads
	// directly — no join in between — carries it too, as a hint: the filter
	// still applies it in full, so the scan may narrow itself by any part of
	// it (Table.SeekRange) or ignore it.
	Pred      Expr
	GroupCols []string    // StepGroupBy
	Aggs      []AggSpec   // StepGroupBy
	Items     []ProjItem  // StepProject
	OrderBy   []OrderItem // StepSort
	// N is the LIMIT (StepLimit, and StepSort, which keeps only the first N
	// rows of its order; -1 there when the statement has none).
	N int
	// LimitSlot is the bind-vector slot holding N, or -1 (StepLimit and
	// StepSort; see SelectStmt.LimitSlot).
	LimitSlot int
}

// Steps lowers the statement to its stages in execution order: scan, one
// join per JOIN clause, filter, then either group-by (plus a projection when
// the select list is not exactly the group-by output) or the select-list
// projection, sort, limit — the sort told the limit, so it keeps only that
// many rows. It is the one place clause order is decided: Engine.Query runs
// one kernel per step, and the IR frontend (eide) maps steps to nodes, one
// for one, that the relational adapter runs with the same kernels. The steps are appended to dst, so a caller that lowers a
// statement per request can keep the list off the heap.
func (s *SelectStmt) Steps(dst []Step) []Step {
	scan := Step{Kind: StepScan, Table: s.From}
	if len(s.Joins) == 0 {
		scan.Pred = s.Where
	}
	steps := append(dst, scan)
	for _, jc := range s.Joins {
		steps = append(steps, Step{Kind: StepJoin, Table: jc.Table, LeftCol: jc.LeftCol, RightCol: jc.RightCol})
	}
	if s.Where != nil {
		steps = append(steps, Step{Kind: StepFilter, Pred: s.Where})
	}
	var aggs []AggSpec
	items := make([]ProjItem, 0, len(s.Items))
	for _, it := range s.Items {
		e := it.Expr
		if it.Agg != nil {
			aggs = append(aggs, *it.Agg)
			e = ColRef{Name: it.As}
		}
		items = append(items, ProjItem{E: e, Name: it.As})
	}
	grouped := len(aggs) > 0 || len(s.GroupBy) > 0
	if grouped {
		steps = append(steps, Step{Kind: StepGroupBy, GroupCols: s.GroupBy, Aggs: aggs})
	}
	if !s.Star && !(grouped && isGroupByOutput(items, s.GroupBy, aggs)) {
		steps = append(steps, Step{Kind: StepProject, Items: items})
	}
	if len(s.OrderBy) > 0 {
		steps = append(steps, Step{Kind: StepSort, OrderBy: s.OrderBy, N: s.Limit, LimitSlot: s.LimitSlot})
	}
	if s.Limit >= 0 {
		steps = append(steps, Step{Kind: StepLimit, N: s.Limit, LimitSlot: s.LimitSlot})
	}
	return steps
}

// isGroupByOutput reports whether the select list is exactly what GroupBy
// emits — the group columns under their source names, then the aggregates —
// name for name and position for position, so no projection is needed.
func isGroupByOutput(items []ProjItem, groupCols []string, aggs []AggSpec) bool {
	if len(items) != len(groupCols)+len(aggs) {
		return false
	}
	for i, it := range items {
		var out string
		if i < len(groupCols) {
			out = BaseName(groupCols[i])
		} else {
			out = aggs[i-len(groupCols)].As
		}
		cr, ok := it.E.(ColRef)
		if !ok || BaseName(cr.Name) != out || it.Name != out {
			return false
		}
	}
	return true
}
