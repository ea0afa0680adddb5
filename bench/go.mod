module kgexplore/bench

go 1.22

require kgexplore v0.0.0

replace kgexplore => ../
