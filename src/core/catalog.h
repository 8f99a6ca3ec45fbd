// The MDBS global catalog: derived cost-model parameters are "kept in the
// MDBS catalog and utilized during query optimization" (paper §1). Keyed by
// (site name, query class).

#ifndef MSCM_CORE_CATALOG_H_
#define MSCM_CORE_CATALOG_H_

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/cost_model.h"

namespace mscm::core {

class GlobalCatalog {
 public:
  // Registers (or replaces) the model for (site, model.class_id()).
  //
  // Invalidation rule: Register() destroys any previously registered model
  // for the same (site, class) key, so raw pointers obtained from Find() for
  // that key dangle afterwards. Pointers for *other* keys stay valid
  // (std::map nodes are stable), but the safe contract is: do not hold a
  // Find() pointer across any Register() call. Callers that must outlive
  // writes should use FindCopy(), or hold the catalog inside
  // runtime::SnapshotCatalog, whose immutable snapshots make Find() pointers
  // valid for the snapshot's whole lifetime.
  void Register(const std::string& site, CostModel model);

  // Removes every model registered for `site` (all query classes). Returns
  // the number of entries erased (0 = the site had none). The same
  // invalidation rule as Register() applies: Find() pointers for the erased
  // keys dangle afterwards.
  size_t Unregister(const std::string& site);

  // The model for (site, class), or nullptr if none is registered. The
  // pointer is invalidated by a Register() for the same key (see above).
  const CostModel* Find(const std::string& site, QueryClassId class_id) const;

  // The *serving form* for (site, class): the per-state equation table
  // compiled when the model was built (stored alongside the derivation
  // artifact), or nullptr if none is registered. Same invalidation rule as
  // Find(). Estimate-serving callers should consume this, not the model's
  // DesignLayout.
  const CompiledEquations* FindCompiled(const std::string& site,
                                        QueryClassId class_id) const;

  // Value-returning lookup: a copy that cannot dangle, at the price of
  // copying the model (a few hundred doubles). Preferred by concurrent
  // callers that cannot pin a snapshot.
  std::optional<CostModel> FindCopy(const std::string& site,
                                    QueryClassId class_id) const;

  std::vector<std::pair<std::string, QueryClassId>> Entries() const;

  size_t size() const { return models_.size(); }

 private:
  using Key = std::pair<std::string, int>;
  std::map<Key, CostModel> models_;
};

}  // namespace mscm::core

#endif  // MSCM_CORE_CATALOG_H_
