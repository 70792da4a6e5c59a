package workload

// The parser's reference inputs, for the external test package, whose tests
// import internal/cache (which imports this package).
var (
	RefCases        = refCases
	RefTables       = refTables
	ManyTokens      = manyTokens
	ServebenchLines = servebenchLines
)
