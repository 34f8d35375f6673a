#include "solver/value_table.h"

#include <stdexcept>
#include <utility>

namespace nowsched::solver {

ValueTable::ValueTable(int max_p, Ticks max_lifespan, const Params& params)
    : ValueTable(max_p, max_lifespan, params, NoStorage{}) {
  owned_.assign(entries(), 0);
}

ValueTable::ValueTable(int max_p, Ticks max_lifespan, const Params& params,
                       NoStorage)
    : max_p_(max_p), max_l_(max_lifespan), params_(params) {
  require_valid(params);
  if (max_p < 0) throw std::invalid_argument("ValueTable: max_p must be >= 0");
  if (max_lifespan < 0) throw std::invalid_argument("ValueTable: max_lifespan >= 0");
}

ValueTable ValueTable::view(int max_p, Ticks max_lifespan, const Params& params,
                            std::span<const Ticks> slab,
                            std::shared_ptr<const void> keepalive) {
  // Validate the dimensions without allocating: a view never owns storage,
  // so loading a stored table costs no slab-sized allocation and zero-fill.
  ValueTable table(max_p, max_lifespan, params, NoStorage{});
  if (slab.size() != table.entries()) {
    throw std::invalid_argument(
        "ValueTable::view: slab has " + std::to_string(slab.size()) +
        " entries, dims require " + std::to_string(table.entries()));
  }
  table.view_data_ = slab.data();
  table.keepalive_ = std::move(keepalive);
  return table;
}

Ticks ValueTable::value(int p, Ticks lifespan) const {
  if (p < 0 || p > max_p_ || lifespan < 0 || lifespan > max_l_) {
    throw std::out_of_range("ValueTable::value: (p, L) outside the table");
  }
  return data()[static_cast<std::size_t>(p) * stride() +
                static_cast<std::size_t>(lifespan)];
}

std::span<const Ticks> ValueTable::level(int p) const {
  if (p < 0 || p > max_p_) throw std::out_of_range("ValueTable::level: bad p");
  return {data() + static_cast<std::size_t>(p) * stride(), stride()};
}

std::span<Ticks> ValueTable::mutable_level(int p) {
  if (!owns_storage()) {
    throw std::logic_error(
        "ValueTable::mutable_level: table is a read-only view over external "
        "storage (a mapped store table is immutable by construction)");
  }
  if (p < 0 || p > max_p_) throw std::out_of_range("ValueTable::mutable_level: bad p");
  return {owned_.data() + static_cast<std::size_t>(p) * stride(), stride()};
}

}  // namespace nowsched::solver
