// The benchmark is its own module so that it builds with its own build file
// and never rides along in the parent's `go build ./...`; the module path
// keeps it inside the prodpred tree, which is what lets adapter.go import
// prodpred/internal/... through the replace below.
module prodpred/bench

go 1.22

require prodpred v0.0.0

replace prodpred => ../
