package parser

// FuzzSeeds are the parser's fuzz seeds, for the fuzz targets of the
// external test package.
var FuzzSeeds = append(append([]string(nil), parseModuleSeeds...), pathPredicateSeeds...)
