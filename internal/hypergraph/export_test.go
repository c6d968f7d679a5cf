package hypergraph

// ContractReference exposes the frozen pre-scratch Contract
// (contract_reference_test.go) to the external test package.
var ContractReference = contractReference
