// Row view of a built neighbour list for the tests.  Row i is
// entries()[row_begin()[i], row_end()[i]): its kept neighbours in stencil
// order, then self-padding.  The rows are the list's contract; where a row
// sits in the block depends on which thread took which page, so the tests
// compare rows entry for entry, never offsets or the block as a whole.
#pragma once

#include <cstdint>
#include <vector>

namespace emdpa::md {

using ListRows = std::vector<std::vector<std::uint32_t>>;

template <typename List>
ListRows rows_of(const List& list) {
  const auto entries = list.entries();
  ListRows rows(list.row_begin().size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].assign(entries.begin() + list.row_begin()[i],
                   entries.begin() + list.row_end()[i]);
  }
  return rows;
}

}  // namespace emdpa::md
