package chase

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/logic"
	"repro/internal/plan"
	"repro/internal/storage"
)

// RunStratified chases a program with (possibly) negated body atoms under
// stratified semantics. Rules are grouped by the minimum level of their
// head predicates and each group is chased to completion before the next
// starts, so a rule's negated predicates — which sit at strictly lower
// levels by stratifiedness — are closed when the rule fires. All groups
// run on one copy of the input, so provenance rows refer to TGD indices of
// the program and BaseFacts is the size of the input database. For
// programs without negation the result coincides with Run.
func RunStratified(prog *logic.Program, db *storage.DB, opt Options) (*Result, error) {
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("chase: %w", err)
	}
	strata, err := analysis.Analyze(prog).NegationStrata()
	if err != nil {
		return nil, fmt.Errorf("chase: %w", err)
	}
	return chaseGroups(prog, db, opt, plan.GroupByLevel(strata))
}
