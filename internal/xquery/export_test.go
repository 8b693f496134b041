package xquery

// CompileDifferentialCorpus is the optimizer's differential corpus, for
// the plan golden of package xquery_test.
var CompileDifferentialCorpus = compileDifferentialCorpus
