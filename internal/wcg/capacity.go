package wcg

// Task-server capacity model (§3.2). The wanted workunit duration is "also
// constrained by the capacity of the servers at World Community Grid to
// distribute the work to volunteer devices: it determines the rate of
// transactions with the servers" — the paper cites the BOINC task-server
// study of Anderson, Korpela and Walton for the machinery. This file
// provides the closed-form load model: the average transaction rate a
// packaging choice puts on the server.

// ServerCapacity describes a task server's sustainable load.
type ServerCapacity struct {
	// TransactionsPerSecond the server sustains (scheduler RPCs that
	// assign or collect work). The BOINC task-server paper measured
	// hundreds per second on 2005 hardware.
	TransactionsPerSecond float64
	// TxPerResult is the number of transactions one result copy costs:
	// one to fetch, one to report (plus validator/assimilator work folded
	// into the constant).
	TxPerResult float64
	// UtilizationTarget is the fraction of capacity the operator is
	// willing to spend on one project (headroom for the other hosted
	// projects and load spikes).
	UtilizationTarget float64
}

// DefaultServerCapacity reflects a mid-2000s BOINC task server hosting
// several projects.
func DefaultServerCapacity() ServerCapacity {
	return ServerCapacity{
		TransactionsPerSecond: 200,
		TxPerResult:           2,
		UtilizationTarget:     0.25,
	}
}

// LoadFor returns the average transactions per second a campaign imposes:
// copies sent (workunits × redundancy) × transactions per copy, spread over
// the campaign duration.
func (c ServerCapacity) LoadFor(workunits int64, redundancy float64, campaignSeconds float64) float64 {
	if campaignSeconds <= 0 {
		panic("wcg: campaign duration must be positive")
	}
	if redundancy < 1 {
		redundancy = 1
	}
	return float64(workunits) * redundancy * c.TxPerResult / campaignSeconds
}
