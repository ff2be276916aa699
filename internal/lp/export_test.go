package lp

// ReferenceSolve hands the dense oracle to the external tests, which build
// their problems with internal/geom (an importer of this package).
var ReferenceSolve = refSolve
