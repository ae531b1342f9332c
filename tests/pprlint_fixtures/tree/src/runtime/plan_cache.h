// Fixture: declaring GetOrCompile is not calling it (one-resolve stays
// silent here).
namespace fx {

struct PlanCache {
  int GetOrCompile(int key, int (*factory)());
};

int ResolvePlan(PlanCache* cache, int key);

}  // namespace fx
