package main

// pinnedDigests are the default-seed (--seed 0) output digests at full
// size: the sha256 of the report's JSON rendering with its config zeroed
// (replay, megagrid), of the grid report's with every tenant config zeroed
// (corun), and of the sweep's Results (sweep, whatif). An op whose digest
// differs has changed the simulation, not only its speed.
var pinnedDigests = map[string]string{
	"replay":   "c6cef6ad83229672a2025bca863a9ab4b31874f34d50f70768cc2fac7e6ef10c",
	"megagrid": "dec8b97e42bcdc45c4b4649f3bd40232f68f1a0a5b6869ceefc37337f2059664",
	"corun":    "2d11ee58c0881107a1b836c1c31e5dda2ee9015c34be5499b23ad2e4097851b9",
	"sweep":    "fe6a1037ee515702933c22b73be3a8e4ab7fa563dbea630f9349cf93386d643a",
	"whatif":   "83953b87c2fc4e379fca68ee31d20efe9b7d4d35bb479d3030a5ccc55b8de0f2",
}
