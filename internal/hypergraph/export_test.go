package hypergraph

// ContractReference exposes the frozen pre-scratch Contract
// (contract_reference_test.go) to the external test package.
var ContractReference = contractReference

// MustBuild is Build but panics on error, for test inputs that are correct
// by construction.
func (b *Builder) MustBuild() *Hypergraph {
	h, err := b.Build()
	if err != nil {
		panic(err)
	}
	return h
}
