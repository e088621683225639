#include "wire.h"

#include <algorithm>
#include <cstdlib>
#include <deque>

namespace perfbench {

dbim::Request RequestFor(const std::string& session, const WireOp& op) {
  if (op.evaluate) return dbim::Request::Evaluate(session);
  if (op.op.is_update()) {
    const dbim::UpdateOp& u = op.op.update();
    return dbim::Request::Update(session, u.id, u.attr, u.value);
  }
  if (op.op.is_insertion()) {
    return dbim::Request::Insert(session, op.op.insertion().fact.values());
  }
  return dbim::Request::Delete(session, op.op.deletion().id);
}

std::vector<WireOp> MakeWireCycle(const Instance& inst,
                                  const std::vector<dbim::Fact>& donors,
                                  size_t evaluate_every) {
  const dbim::FactId first_donor_id =
      static_cast<dbim::FactId>(inst.dirty.size());
  std::vector<WireOp> applies;
  auto push = [&](WireOp op) { applies.push_back(std::move(op)); };
  // Spreads the donor ops evenly among the pass's updates.
  auto interleave = [&](const std::vector<RepairOperation>& updates,
                        bool insert) {
    const size_t total = updates.size() + donors.size();
    size_t u = 0, d = 0;
    for (size_t k = 0; k < total; ++k) {
      const bool take_donor =
          d < donors.size() &&
          (u == updates.size() || (d + 1) * total <= (k + 1) * donors.size());
      WireOp op;
      if (take_donor) {
        const dbim::FactId id = first_donor_id + static_cast<dbim::FactId>(d);
        if (insert) {
          op.op = RepairOperation::Insertion(donors[d]);
          op.predicted_id = id;
        } else {
          op.op = RepairOperation::Deletion(id);
        }
        ++d;
      } else {
        op.op = updates[u++];
      }
      push(std::move(op));
    }
  };
  interleave(inst.restore, true);
  interleave(inst.redirty, false);
  // EVALUATEs at evenly spaced points, the last one at the cycle end, so
  // reports sample the same points of every cycle whatever its length.
  const size_t n = applies.size();
  const size_t evaluates =
      std::max<size_t>(1, (n + evaluate_every / 2) / evaluate_every);
  std::vector<WireOp> cycle;
  size_t next = 1;
  for (size_t i = 0; i < n; ++i) {
    cycle.push_back(std::move(applies[i]));
    if ((i + 1) * evaluates >= next * n) {
      WireOp evaluate;
      evaluate.evaluate = true;
      evaluate.cycle_end = i + 1 == n;
      cycle.push_back(std::move(evaluate));
      ++next;
    }
  }
  return cycle;
}

bool LoadOverWire(dbim::ServiceClient& client, const std::string& session,
                  const Database& db, std::string* error) {
  if (!client.Register(session, error)) return false;
  std::vector<dbim::FactId> ids = db.ids();
  std::sort(ids.begin(), ids.end());
  std::deque<std::pair<std::string, dbim::FactId>> outstanding;
  auto complete_one = [&]() {
    dbim::AwaitedResponse response;
    if (!client.Await(outstanding.front().first, &response, error)) {
      return false;
    }
    const dbim::FactId want = outstanding.front().second;
    outstanding.pop_front();
    if (!response.ok() || response.final.args.size() != 1 ||
        std::strtoull(response.final.args[0].c_str(), nullptr, 10) != want) {
      *error = "load INSERT did not get id " + std::to_string(want);
      return false;
    }
    return true;
  };
  for (const dbim::FactId id : ids) {
    const std::string tag = client.Issue(
        dbim::Request::Insert(session, db.fact(id).values()), error);
    if (tag.empty()) return false;
    outstanding.emplace_back(tag, id);
    if (outstanding.size() >= 64 && !complete_one()) return false;
  }
  while (!outstanding.empty()) {
    if (!complete_one()) return false;
  }
  return true;
}

bool SameWireReport(const dbim::WireReport& got, const BatchReport& want,
                    std::string* why) {
  if (got.num_minimal_subsets != want.num_minimal_subsets ||
      got.truncated != want.truncated ||
      got.measures.size() != want.measures.size()) {
    *why = "subsets " + std::to_string(got.num_minimal_subsets) + " vs " +
           std::to_string(want.num_minimal_subsets);
    return false;
  }
  for (size_t m = 0; m < got.measures.size(); ++m) {
    if (got.measures[m].first != want.measures[m].name ||
        !(got.measures[m].second == want.measures[m].value)) {
      *why = "measure " + want.measures[m].name + " differs";
      return false;
    }
  }
  return true;
}

void DriveWire(dbim::ServiceClient& client, const std::string& session,
               const std::vector<WireOp>& cycle, size_t depth,
               size_t vacuum_rounds, uint64_t deadline,
               const BatchReport& dirty_reference, uint64_t op_base,
               WireCursor* cursor, WireLog* log) {
  struct InFlight {
    std::string tag;
    const WireOp* op;  // nullptr = the operator's VACUUM
    uint64_t issued_ns;
    uint64_t op_id;
  };
  std::deque<InFlight> in_flight;
  bool transport_ok = true;
  auto complete_one = [&]() {
    const InFlight f = in_flight.front();
    in_flight.pop_front();
    dbim::AwaitedResponse response;
    std::string error;
    if (!client.Await(f.tag, &response, &error)) {
      log->failures.push_back("transport: " + error);
      transport_ok = false;
      return;
    }
    const uint64_t done = NowNs();
    const bool evaluate = f.op != nullptr && f.op->evaluate;
    OpCounts& counts = f.op == nullptr ? log->vacuum
                       : evaluate      ? log->report
                                       : log->apply;
    ++counts.attempted;
    RecordSpan(f.op == nullptr ? "service.VACUUM"
               : evaluate      ? "service.EVALUATE"
                               : "service.APPLY",
               f.issued_ns, done, f.op_id);
    if (!response.ok()) {
      if (response.final.error_code == "BUSY") {
        ++counts.refused;
      } else {
        ++counts.failed;
        log->failures.push_back("ERR " + response.final.error_code + ": " +
                                response.final.error_message);
      }
      return;
    }
    if (f.op == nullptr) return;
    if (evaluate) {
      log->report_ms.push_back({done, (done - f.issued_ns) * 1e-6});
      dbim::WireReport report;
      std::string why;
      if (!dbim::ServiceClient::ParseReportArgs(response.final.args, 0,
                                                &report, &why) ||
          (f.op->cycle_end &&
           !SameWireReport(report, dirty_reference, &why))) {
        ++counts.failed;
        log->failures.push_back(session + ": cycle-end EVALUATE: " + why);
      }
      return;
    }
    log->apply_us.push_back({done, (done - f.issued_ns) * 1e-3});
    log->applied.push_back(static_cast<uint32_t>(f.op - cycle.data()));
    if (f.op->op.is_insertion() &&
        (response.final.args.size() != 1 ||
         std::strtoull(response.final.args[0].c_str(), nullptr, 10) !=
             f.op->predicted_id)) {
      ++counts.failed;
      log->failures.push_back(session + ": INSERT got an unexpected id");
    }
  };
  auto issue = [&](dbim::Request request, const WireOp* op, uint64_t op_id) {
    std::string error;
    const uint64_t issued = NowNs();
    const std::string tag = client.Issue(std::move(request), &error);
    if (tag.empty()) {
      log->failures.push_back("transport: " + error);
      transport_ok = false;
      return;
    }
    in_flight.push_back(InFlight{tag, op, issued, op_id});
    while (transport_ok && in_flight.size() >= depth) complete_one();
  };

  uint64_t op_id = op_base;
  const size_t end = cursor->position + cycle.size();
  for (size_t k = cursor->position; transport_ok; ++k) {
    if (deadline == 0 ? k == end : NowNs() >= deadline) break;
    cursor->position = k % cycle.size();
    if (cursor->position == 0 && vacuum_rounds > 0 &&
        cursor->rounds++ % vacuum_rounds == vacuum_rounds - 1) {
      issue(dbim::Request::Vacuum(0.5), nullptr, op_id++);
    }
    const WireOp& op = cycle[cursor->position];
    issue(RequestFor(session, op), &op, op_id++);
    cursor->position = (k + 1) % cycle.size();
  }
  while (transport_ok && !in_flight.empty()) complete_one();
}

}  // namespace perfbench
