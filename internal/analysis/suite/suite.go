// Package suite registers the full mnmvet analyzer set, shared by the
// cmd/mnmvet driver and the repo-cleanliness test.
package suite

import (
	"github.com/mnm-model/mnm/internal/analysis"
	"github.com/mnm-model/mnm/internal/analysis/lockedblocking"
	"github.com/mnm-model/mnm/internal/analysis/lockorder"
	"github.com/mnm-model/mnm/internal/analysis/simdeterminism"
	"github.com/mnm-model/mnm/internal/analysis/stopselect"
	"github.com/mnm-model/mnm/internal/analysis/timerleak"
	"github.com/mnm-model/mnm/internal/analysis/wirecodec"
)

// All returns every mnmvet analyzer, in reporting order: the v1
// syntactic rules first, then the v2 interprocedural family
// (lockedblocking/lockorder ride the shared callgraph + effect summaries).
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		simdeterminism.Analyzer,
		wirecodec.Analyzer,
		lockedblocking.Analyzer,
		timerleak.Analyzer,
		stopselect.Analyzer,
		lockorder.Analyzer,
	}
}
