package partition

// ClusterTerminals exposes the test-only terminal-clustering reduction
// (terminals_test.go) to the external test package.
var ClusterTerminals = clusterTerminals
