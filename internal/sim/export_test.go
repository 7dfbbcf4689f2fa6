package sim

// RaceEnabled is raceEnabled, for this package's external tests.
const RaceEnabled = raceEnabled
