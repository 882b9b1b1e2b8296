// Fixture for obs-inventory (OBS02): the names this TU emits through the
// probe macros against the inventory tables of inventory.md next to it.
#define FTTT_OBS_COUNT(name, delta) (void)(delta)
#define FTTT_OBS_HIST(name, unit, value) (void)(value)
#define FTTT_OBS_SPAN(name) (void)0

namespace fixture {

void probes(int n, const char* dynamic_name) {
  FTTT_OBS_SPAN("fixture.documented");
  FTTT_OBS_HIST("fixture.documented", "items", n);  // documented, repeated
  FTTT_OBS_COUNT("fixture.undocumented", n);        // OBS02
  FTTT_OBS_COUNT(dynamic_name, n);                  // not a literal: skipped
}

}  // namespace fixture
