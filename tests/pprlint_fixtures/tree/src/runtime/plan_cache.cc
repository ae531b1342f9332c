// Fixture: the resolve step is the one caller one-resolve allows.
#include "plan_cache.h"

namespace fx {

int ResolvePlan(PlanCache* cache, int key) {
  return cache->GetOrCompile(key, [] { return 3; });
}

}  // namespace fx
