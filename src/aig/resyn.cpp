#include "aig/resyn.hpp"

#include "aig/balance.hpp"
#include "aig/refactor.hpp"
#include "aig/rewrite.hpp"

namespace rcgp::aig {

Aig resyn2(const Aig& input, ResynStats* stats) {
  Aig net = input.cleanup();
  if (stats) {
    stats->ands_before = net.count_live_ands();
    stats->depth_before = net.depth();
  }

  auto rw = [](Aig& a, bool zero) {
    RewriteParams p;
    p.allow_zero_gain = zero;
    rewrite_pass(a, p);
    a = a.cleanup();
  };
  auto rf = [](Aig& a, bool zero) {
    RefactorParams p;
    p.allow_zero_gain = zero;
    refactor_pass(a, p);
    a = a.cleanup();
  };

  net = balance(net);
  rw(net, false);
  rf(net, false);
  net = balance(net);
  rw(net, false);
  rw(net, true);
  net = balance(net);
  rf(net, true);
  rw(net, true);
  net = balance(net);

  if (stats) {
    stats->ands_after = net.count_live_ands();
    stats->depth_after = net.depth();
  }
  return net;
}

} // namespace rcgp::aig
