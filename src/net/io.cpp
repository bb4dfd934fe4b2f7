#include "net/io.hpp"

#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "net/ledger.hpp"

namespace dagsfc::net {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::invalid_argument("network text, line " + std::to_string(line) +
                              ": " + what);
}

}  // namespace

std::string to_text(const Network& network) {
  std::ostringstream os;
  os.precision(17);
  const VnfCatalog& c = network.catalog();
  os << "# dagsfc network v1\n";
  os << "catalog " << c.num_regular() << '\n';
  for (VnfTypeId t = 1; t <= c.num_regular(); ++t) {
    if (c.name(t) != "f" + std::to_string(t)) {
      os << "name " << t << ' ' << c.name(t) << '\n';
    }
  }
  os << "nodes " << network.num_nodes() << '\n';
  for (graph::EdgeId e = 0; e < network.num_links(); ++e) {
    const graph::Edge& ed = network.topology().edge(e);
    os << "link " << ed.u << ' ' << ed.v << ' ' << ed.weight << ' '
       << network.link_capacity(e) << '\n';
  }
  for (InstanceId id = 0; id < network.num_instances(); ++id) {
    const VnfInstance& inst = network.instance(id);
    os << "vnf " << inst.node << ' ';
    if (c.is_merger(inst.type)) {
      os << "merger";
    } else {
      os << inst.type;
    }
    os << ' ' << inst.price << ' ' << inst.capacity << '\n';
  }
  return os.str();
}

Network network_from_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;

  std::optional<std::size_t> num_regular;
  std::optional<std::size_t> num_nodes;
  std::vector<std::pair<VnfTypeId, std::string>> names;
  struct LinkDecl {
    graph::NodeId u, v;
    double price, capacity;
    std::size_t line;
  };
  struct VnfDecl {
    graph::NodeId node;
    std::string type;
    double price, capacity;
    std::size_t line;
  };
  std::vector<LinkDecl> links;
  std::vector<VnfDecl> vnfs;

  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream ls(line);
    std::string keyword;
    if (!(ls >> keyword) || keyword[0] == '#') continue;
    if (keyword == "catalog") {
      std::size_t n = 0;
      if (!(ls >> n) || n == 0) fail(lineno, "catalog needs a positive size");
      num_regular = n;
    } else if (keyword == "name") {
      VnfTypeId t = 0;
      std::string n;
      if (!(ls >> t >> n)) fail(lineno, "name needs <type_id> <identifier>");
      if (!num_regular) fail(lineno, "name before catalog");
      if (t < 1 || t > *num_regular) fail(lineno, "type id out of range");
      names.emplace_back(t, n);
    } else if (keyword == "nodes") {
      std::size_t n = 0;
      if (!(ls >> n) || n == 0) fail(lineno, "nodes needs a positive count");
      num_nodes = n;
    } else if (keyword == "link") {
      LinkDecl d{};
      if (!(ls >> d.u >> d.v >> d.price >> d.capacity)) {
        fail(lineno, "link needs <u> <v> <price> <capacity>");
      }
      d.line = lineno;
      if (!num_nodes) fail(lineno, "link before nodes");
      links.push_back(d);
    } else if (keyword == "vnf") {
      VnfDecl d{};
      if (!(ls >> d.node >> d.type >> d.price >> d.capacity)) {
        fail(lineno, "vnf needs <node> <type> <price> <capacity>");
      }
      d.line = lineno;
      if (!num_nodes) fail(lineno, "vnf before nodes");
      vnfs.push_back(d);
    } else {
      fail(lineno, "unknown keyword '" + keyword + "'");
    }
  }
  if (!num_regular) fail(lineno, "missing catalog declaration");
  if (!num_nodes) fail(lineno, "missing nodes declaration");

  std::vector<std::string> regular_names;
  for (std::size_t i = 1; i <= *num_regular; ++i) {
    regular_names.push_back("f" + std::to_string(i));
  }
  for (const auto& [t, n] : names) regular_names[t - 1] = n;
  VnfCatalog catalog(std::move(regular_names));

  graph::Graph g(*num_nodes);
  std::vector<double> caps;
  for (const LinkDecl& d : links) {
    if (d.u >= *num_nodes || d.v >= *num_nodes) {
      fail(d.line, "link endpoint out of range");
    }
    try {
      (void)g.add_edge(d.u, d.v, d.price);
    } catch (const ContractViolation& e) {
      fail(d.line, e.what());
    }
    caps.push_back(d.capacity);
  }

  Network network(std::move(g), catalog);
  for (graph::EdgeId e = 0; e < caps.size(); ++e) {
    if (!CapacityLedger::countable(caps[e])) {
      fail(links[e].line, "link capacity must be in [0, ~9.2e9]");
    }
    network.set_link_capacity(e, caps[e]);
  }
  for (const VnfDecl& d : vnfs) {
    if (d.node >= *num_nodes) fail(d.line, "vnf node out of range");
    VnfTypeId type;
    if (d.type == "merger") {
      type = catalog.merger();
    } else {
      try {
        const unsigned long parsed = std::stoul(d.type);
        type = static_cast<VnfTypeId>(parsed);
      } catch (const std::exception&) {
        fail(d.line, "vnf type must be a category id or 'merger'");
      }
      if (!catalog.is_regular(type)) fail(d.line, "vnf type out of range");
    }
    try {
      (void)network.deploy(d.node, type, d.price, d.capacity);
    } catch (const ContractViolation& e) {
      fail(d.line, e.what());
    }
  }
  return network;
}

}  // namespace dagsfc::net
