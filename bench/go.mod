// The benchmark is a module of its own so that building or testing the
// program (go build ./... at the repository root) never compiles it. The
// module path sits under the program's, which is what lets it import the
// program's internal packages.
module github.com/laces-project/laces/bench

go 1.23.0

require github.com/laces-project/laces v0.0.0

replace github.com/laces-project/laces => ../
