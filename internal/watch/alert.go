// Package watch is the fleet's health plane: a deterministic engine
// that scores campaigns from interval-boundary metric samples, solve
// results and ops samples, and raises rules-driven alerts with
// reproducible identities.
//
// The engine is deliberately pure: it never reads the wall clock, it
// iterates nothing in map order on an output path, and every alert ID
// derives from (campaign, rule, lane, interval) alone — so two
// identical campaign trajectories raise byte-identical alerts, and a
// journaled alert deduplicates exactly against its re-derivation after
// a coordinator restart. Side effects (journaling, trace spans,
// Prometheus gauges, the HTTP snapshot) belong to the caller.
package watch

import "fmt"

// Alert rule names. Each names one detector in the health engine; the
// set is closed so journals and traces stay schema-checkable.
const (
	// RuleCoverageStall fires when a lane's coverage points have not
	// grown for Rules.StallIntervals consecutive interval samples.
	RuleCoverageStall = "coverage_stall"
	// RuleSolveRegress fires when the campaign's EWMA solver latency
	// exceeds Rules.SolveRegress times its own early-solve baseline.
	RuleSolveRegress = "solve_regress"
	// RuleUnsatChurn fires when one CFG target comes back UNSAT
	// Rules.UnsatChurn times without an interleaved SAT.
	RuleUnsatChurn = "unsat_churn"
	// RuleQueueSat fires when a campaign's ingest queue sits at or
	// above Rules.QueueSatPct of its depth bound.
	RuleQueueSat = "queue_sat"
	// RuleRate429 fires when a campaign accrues Rules.Rate429 or more
	// admission rejections between two consecutive ops sweeps.
	RuleRate429 = "rate_429"
	// RuleRankDead fires when a rank's lease expires without a report —
	// the worker died or lost its network. It clears when publishes
	// from the rank resume (a replacement worker adopted it).
	RuleRankDead = "rank_dead"
	// RuleBudgetBurn fires when accumulated solver wall time passes
	// Rules.BudgetBurnPct of the campaign's solver-seconds quota
	// (warn), escalating to crit at the full budget.
	RuleBudgetBurn = "budget_burn"
)

// Alert severities.
const (
	SevWarn = "warn"
	SevCrit = "crit"
)

// Alert is one raised health-rule violation. ID is deterministic —
// AlertID over (Campaign, Rule, Lane, Interval) — and is the dedup key
// across journal replay and trace re-emission. TNS is wall-clock
// annotation only and never participates in identity.
type Alert struct {
	ID       string `json:"id"`
	Campaign string `json:"campaign"`
	Rule     string `json:"rule"`
	// Lane scopes the alert: the rank for per-rank rules (rank_dead,
	// coverage_stall), 0 for campaign-level rules.
	Lane int `json:"lane"`
	// Interval is the rule-specific deterministic index: the sample
	// interval for coverage_stall, the solve ordinal for solve_regress,
	// the per-rank death ordinal for rank_dead, and the per-rule
	// occurrence ordinal for the ops rules.
	Interval  int     `json:"interval"`
	Severity  string  `json:"severity"`
	Msg       string  `json:"msg"`
	Value     float64 `json:"value,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	TNS       int64   `json:"t_ns,omitempty"`
}

// AlertID derives the deterministic alert identity.
func AlertID(campaign, rule string, lane, interval int) string {
	return fmt.Sprintf("%s/%s/r%d/i%d", campaign, rule, lane, interval)
}

// Rules parameterizes the health engine's detectors. The zero value
// takes the defaults documented per field.
type Rules struct {
	// StallIntervals is how many consecutive no-new-points interval
	// samples a lane tolerates before coverage_stall (default 8).
	StallIntervals int
	// SolveBaseline is how many leading solves form the campaign's
	// latency baseline (default 8).
	SolveBaseline int
	// SolveEWMAAlpha weights the newest solve in the EWMA (default 0.25).
	SolveEWMAAlpha float64
	// SolveRegress is the EWMA-over-baseline ratio that trips
	// solve_regress (default 2.0).
	SolveRegress float64
	// UnsatChurn is the consecutive-UNSAT count per target that trips
	// unsat_churn (default 4).
	UnsatChurn int
	// QueueSatPct is the queue-depth fraction that trips queue_sat
	// (default 0.8).
	QueueSatPct float64
	// Rate429 is the per-sweep rejection count that trips rate_429
	// (default 10).
	Rate429 int64
	// BudgetBurnPct is the solver-budget fraction that trips
	// budget_burn (default 0.8).
	BudgetBurnPct float64
}

func (r Rules) withDefaults() Rules {
	if r.StallIntervals <= 0 {
		r.StallIntervals = 8
	}
	if r.SolveBaseline <= 0 {
		r.SolveBaseline = 8
	}
	if r.SolveEWMAAlpha <= 0 || r.SolveEWMAAlpha > 1 {
		r.SolveEWMAAlpha = 0.25
	}
	if r.SolveRegress <= 1 {
		r.SolveRegress = 2.0
	}
	if r.UnsatChurn <= 0 {
		r.UnsatChurn = 4
	}
	if r.QueueSatPct <= 0 || r.QueueSatPct > 1 {
		r.QueueSatPct = 0.8
	}
	if r.Rate429 <= 0 {
		r.Rate429 = 10
	}
	if r.BudgetBurnPct <= 0 || r.BudgetBurnPct > 1 {
		r.BudgetBurnPct = 0.8
	}
	return r
}

// Severity penalties for the health score: a campaign starts at 100
// and loses points per currently-firing condition, floored at 0.
const (
	scoreFull    = 100
	penaltyWarn  = 10
	penaltyCrit  = 30
	scoreMinimum = 0
)
