// CNF formulas over Boolean variables. Literals use DIMACS conventions:
// +(v+1) for variable v, -(v+1) for its negation. This is the target
// representation of Algorithm 1: the negated provenance formula ¬F is a
// conjunction of clauses, one per possible rule assignment (Sec. 5.1).
//
// A Cnf is one flat clause arena: every clause's literals sit back to back
// in one pool, and clause i is pool[starts[i], starts[i+1]). Producers
// append a clause at the pool's tail and canonicalize it there, so no
// clause owns a vector of its own, and copying a Cnf is two memcpys. A Cnf
// also knows whether it is normalized (Normalize() ran and no clause was
// kept since), so a consumer handed a normalized CNF need not normalize
// its copy again.
#ifndef DELTAREPAIR_SAT_CNF_H_
#define DELTAREPAIR_SAT_CNF_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

namespace deltarepair {

using Lit = int32_t;

inline Lit PosLit(uint32_t var) { return static_cast<Lit>(var) + 1; }
inline Lit NegLit(uint32_t var) { return -(static_cast<Lit>(var) + 1); }
inline uint32_t LitVar(Lit l) { return static_cast<uint32_t>((l < 0 ? -l : l) - 1); }
inline bool LitSign(Lit l) { return l > 0; }  // true = positive

/// A CNF formula: conjunction of clauses, each a disjunction of literals.
class Cnf {
 public:
  /// Read-only view of one clause's literals, pointing into the pool of
  /// the Cnf it came from. It is valid only until that Cnf next adds a
  /// clause (AddClause, PushLit, EndClause) or normalizes, either of which
  /// may move or compact the pool; copy what you keep.
  class Clause {
   public:
    Clause(const Lit* begin, const Lit* end) : begin_(begin), end_(end) {}
    size_t size() const { return static_cast<size_t>(end_ - begin_); }
    bool empty() const { return begin_ == end_; }
    Lit operator[](size_t i) const { return begin_[i]; }
    const Lit* begin() const { return begin_; }
    const Lit* end() const { return end_; }

   private:
    const Lit* begin_;
    const Lit* end_;
  };

  /// Range of clause views in clause order, indexable in O(1); same
  /// lifetime as a Clause.
  class ClauseRange {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = Clause;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = Clause;

      iterator(const Lit* pool, const uint32_t* start)
          : pool_(pool), start_(start) {}
      Clause operator*() const {
        return Clause(pool_ + start_[0], pool_ + start_[1]);
      }
      iterator& operator++() {
        ++start_;
        return *this;
      }
      bool operator==(const iterator& o) const { return start_ == o.start_; }
      bool operator!=(const iterator& o) const { return start_ != o.start_; }

     private:
      const Lit* pool_;
      const uint32_t* start_;
    };

    ClauseRange(const Lit* pool, const uint32_t* starts, size_t size)
        : pool_(pool), starts_(starts), size_(size) {}
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    Clause operator[](size_t i) const {
      return Clause(pool_ + starts_[i], pool_ + starts_[i + 1]);
    }
    iterator begin() const { return iterator(pool_, starts_); }
    iterator end() const { return iterator(pool_, starts_ + size_); }

   private:
    const Lit* pool_;
    const uint32_t* starts_;
    size_t size_;
  };

  Cnf() = default;
  explicit Cnf(uint32_t num_vars) : num_vars_(num_vars) {}

  uint32_t num_vars() const { return num_vars_; }
  void set_num_vars(uint32_t n) { num_vars_ = n; }

  /// Ensures the variable exists; returns it unchanged.
  uint32_t Touch(uint32_t var) {
    if (var >= num_vars_) num_vars_ = var + 1;
    return var;
  }

  /// Adds a clause in canonical form: literals sorted by (variable, sign),
  /// repeated literals removed, every variable touched. Tautological
  /// clauses (x ∨ ¬x) are dropped. Returns true if the clause was kept.
  bool AddClause(std::vector<Lit> lits);

  /// Adds a clause without a vector of its own: PushLit appends literals
  /// at the pool's tail, and EndClause turns them into one clause in the
  /// canonical form AddClause gives, returning what AddClause would. Add
  /// nothing else between a clause's first PushLit and its EndClause.
  void PushLit(Lit l) { lits_.push_back(l); }
  bool EndClause();

  size_t num_clauses() const {
    return starts_.empty() ? 0 : starts_.size() - 1;
  }
  ClauseRange clauses() const {
    return ClauseRange(lits_.data(), starts_.data(), num_clauses());
  }

  /// The arena itself, for consumers that copy it whole (Min-Ones' working
  /// copy): clause i is literals()[starts()[i], starts()[i+1]). starts()
  /// holds num_clauses() + 1 entries, or none before the first clause.
  const std::vector<Lit>& literals() const { return lits_; }
  const std::vector<uint32_t>& starts() const { return starts_; }

  /// What Normalize() dropped (satisfiability-preserving).
  struct NormalizeStats {
    uint64_t duplicate_clauses = 0;    // textually identical repeats
    uint64_t unit_subsumed_clauses = 0;  // wider clauses containing a unit
  };

  /// Normalizes the clause set before solving: drops duplicate clauses
  /// and clauses subsumed by a unit clause (any clause containing the
  /// unit's literal is implied by it). Repeated ground assignments emit
  /// exactly these shapes, so the counters are worth reporting. Of
  /// duplicates the first occurrence survives, and survivors keep their
  /// order.
  NormalizeStats Normalize();

  /// True when Normalize() ran and no clause was kept since. Copies carry
  /// the flag.
  bool normalized() const { return normalized_; }

  /// True if `model` (indexed by variable) satisfies every clause.
  bool IsSatisfiedBy(const std::vector<bool>& model) const;

  /// DIMACS-ish rendering for debugging.
  std::string ToString() const;

 private:
  uint32_t num_vars_ = 0;
  bool normalized_ = false;
  std::vector<Lit> lits_;        // every clause's literals, back to back
  std::vector<uint32_t> starts_;  // clause starts, then the end; or none
};

}  // namespace deltarepair

#endif  // DELTAREPAIR_SAT_CNF_H_
