module github.com/mnm-model/mnm/bench

go 1.22

require github.com/mnm-model/mnm v0.0.0

replace github.com/mnm-model/mnm => ../
