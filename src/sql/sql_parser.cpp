#include "sql/sql_parser.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdlib>

#include "sql/sql_lexer.hpp"
#include "utils/assert.hpp"

namespace hyrise::sql {

namespace {

/// Recursive-descent parser over the token stream. Every Parse* method either
/// returns a node or sets `error_` and returns null; callers propagate.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<std::vector<StatementPtr>> ParseStatements() {
    auto statements = std::vector<StatementPtr>{};
    while (!AtEnd()) {
      if (MatchOperator(";")) {
        continue;
      }
      auto statement = ParseStatement();
      if (!statement) {
        return Result<std::vector<StatementPtr>>::Error(error_);
      }
      statements.push_back(std::move(statement));
      if (!AtEnd() && !MatchOperator(";")) {
        return Result<std::vector<StatementPtr>>::Error(ErrorAtCurrent("expected ';' between statements"));
      }
    }
    return statements;
  }

 private:
  // --- Token helpers ----------------------------------------------------------

  const Token& Current() const {
    return tokens_[position_];
  }

  const Token& Peek(size_t ahead = 1) const {
    return tokens_[std::min(position_ + ahead, tokens_.size() - 1)];
  }

  bool AtEnd() const {
    return Current().type == TokenType::kEnd;
  }

  void Advance() {
    if (!AtEnd()) {
      ++position_;
    }
  }

  bool CheckKeyword(const std::string& keyword) const {
    return Current().type == TokenType::kKeyword && Current().value == keyword;
  }

  bool MatchKeyword(const std::string& keyword) {
    if (CheckKeyword(keyword)) {
      Advance();
      return true;
    }
    return false;
  }

  bool CheckOperator(const std::string& op) const {
    return Current().type == TokenType::kOperator && Current().value == op;
  }

  bool MatchOperator(const std::string& op) {
    if (CheckOperator(op)) {
      Advance();
      return true;
    }
    return false;
  }

  std::string ErrorAtCurrent(const std::string& message) {
    if (error_.empty()) {
      error_ = "Parse error: " + message + " near '" + Current().value + "' (offset " +
               std::to_string(Current().offset) + ")";
    }
    return error_;
  }

  /// Reads the current number token as a T and advances past it. A literal
  /// that is no T or lies outside its range is a parse error naming it.
  template <typename T>
  std::optional<T> ParseNumberToken() {
    const auto& text = Current().value;
    auto number = T{};
    const auto [end, error] = std::from_chars(text.data(), text.data() + text.size(), number);
    if (error != std::errc{} || end != text.data() + text.size()) {
      ErrorAtCurrent(std::string{error == std::errc::result_out_of_range ? "numeric literal out of range: "
                                                                         : "invalid numeric literal: "} +
                     text);
      return std::nullopt;
    }
    Advance();
    return number;
  }

  bool ExpectOperator(const std::string& op) {
    if (MatchOperator(op)) {
      return true;
    }
    ErrorAtCurrent("expected '" + op + "'");
    return false;
  }

  bool ExpectKeyword(const std::string& keyword) {
    if (MatchKeyword(keyword)) {
      return true;
    }
    ErrorAtCurrent("expected " + keyword);
    return false;
  }

  /// Accepts an identifier (or non-reserved keyword used as a name).
  bool ExpectIdentifier(std::string& out) {
    if (Current().type == TokenType::kIdentifier) {
      out = Current().value;
      Advance();
      return true;
    }
    ErrorAtCurrent("expected identifier");
    return false;
  }

  // --- Statements -------------------------------------------------------------

  StatementPtr ParseStatement() {
    if (CheckKeyword("SELECT")) {
      auto statement = std::make_unique<Statement>();
      statement->kind = StatementKind::kSelect;
      statement->select = ParseSelect();
      return statement->select ? std::move(statement) : nullptr;
    }
    if (MatchKeyword("INSERT")) {
      return ParseInsert();
    }
    if (MatchKeyword("UPDATE")) {
      return ParseUpdate();
    }
    if (MatchKeyword("DELETE")) {
      return ParseDelete();
    }
    if (MatchKeyword("CREATE")) {
      if (MatchKeyword("TABLE")) {
        return ParseCreateTable();
      }
      if (MatchKeyword("VIEW")) {
        return ParseCreateView();
      }
      ErrorAtCurrent("expected TABLE or VIEW after CREATE");
      return nullptr;
    }
    if (MatchKeyword("DROP")) {
      return ParseDrop();
    }
    if (MatchKeyword("BEGIN")) {
      auto statement = std::make_unique<Statement>();
      statement->kind = StatementKind::kBegin;
      return statement;
    }
    if (MatchKeyword("COMMIT")) {
      auto statement = std::make_unique<Statement>();
      statement->kind = StatementKind::kCommit;
      return statement;
    }
    if (MatchKeyword("ROLLBACK")) {
      auto statement = std::make_unique<Statement>();
      statement->kind = StatementKind::kRollback;
      return statement;
    }
    if (MatchKeyword("COPY")) {
      return ParseCopy();
    }
    if (MatchKeyword("SNAPSHOT")) {
      return ParseSnapshotOrRestore(StatementKind::kSnapshot);
    }
    if (MatchKeyword("RESTORE")) {
      return ParseSnapshotOrRestore(StatementKind::kRestore);
    }
    if (MatchKeyword("CHECKPOINT")) {
      auto statement = std::make_unique<Statement>();
      statement->kind = StatementKind::kCheckpoint;
      return statement;
    }
    ErrorAtCurrent("expected a statement");
    return nullptr;
  }

  /// COPY <table> TO '<path>' [BINARY] | COPY <table> FROM '<path>' [BINARY].
  /// BINARY is the only (and default) format, so the keyword is optional.
  StatementPtr ParseCopy() {
    auto statement = std::make_unique<Statement>();
    statement->kind = StatementKind::kCopy;
    if (!ExpectIdentifier(statement->table_name)) {
      return nullptr;
    }
    if (MatchKeyword("TO")) {
      statement->copy_is_import = false;
    } else if (MatchKeyword("FROM")) {
      statement->copy_is_import = true;
    } else {
      ErrorAtCurrent("expected TO or FROM after COPY <table>");
      return nullptr;
    }
    if (!ExpectFilePath(statement->file_path)) {
      return nullptr;
    }
    MatchKeyword("BINARY");
    return statement;
  }

  /// SNAPSHOT TO '<directory>' | RESTORE FROM '<directory>'.
  StatementPtr ParseSnapshotOrRestore(StatementKind kind) {
    auto statement = std::make_unique<Statement>();
    statement->kind = kind;
    if (!ExpectKeyword(kind == StatementKind::kSnapshot ? "TO" : "FROM")) {
      return nullptr;
    }
    if (!ExpectFilePath(statement->file_path)) {
      return nullptr;
    }
    return statement;
  }

  bool ExpectFilePath(std::string& out) {
    if (Current().type == TokenType::kString && !Current().value.empty()) {
      out = Current().value;
      Advance();
      return true;
    }
    ErrorAtCurrent("expected a non-empty path string literal");
    return false;
  }

  std::unique_ptr<SelectStatement> ParseSelect() {
    if (!ExpectKeyword("SELECT")) {
      return nullptr;
    }
    auto select = std::make_unique<SelectStatement>();
    select->distinct = MatchKeyword("DISTINCT");

    // Select list.
    do {
      auto expression = ParseExpression();
      if (!expression) {
        return nullptr;
      }
      if (MatchKeyword("AS")) {
        std::string alias;
        if (!ExpectIdentifier(alias)) {
          return nullptr;
        }
        expression->alias = alias;
      } else if (Current().type == TokenType::kIdentifier) {
        expression->alias = Current().value;  // Implicit alias.
        Advance();
      }
      select->select_list.push_back(std::move(expression));
    } while (MatchOperator(","));

    if (MatchKeyword("FROM")) {
      do {
        auto table = ParseTableRef();
        if (!table) {
          return nullptr;
        }
        select->from.push_back(std::move(table));
      } while (MatchOperator(","));
    }

    if (MatchKeyword("WHERE")) {
      select->where = ParseExpression();
      if (!select->where) {
        return nullptr;
      }
    }
    if (MatchKeyword("GROUP")) {
      if (!ExpectKeyword("BY")) {
        return nullptr;
      }
      do {
        auto expression = ParseExpression();
        if (!expression) {
          return nullptr;
        }
        select->group_by.push_back(std::move(expression));
      } while (MatchOperator(","));
    }
    if (MatchKeyword("HAVING")) {
      select->having = ParseExpression();
      if (!select->having) {
        return nullptr;
      }
    }
    if (MatchKeyword("ORDER")) {
      if (!ExpectKeyword("BY")) {
        return nullptr;
      }
      do {
        auto item = OrderByItem{};
        item.expression = ParseExpression();
        if (!item.expression) {
          return nullptr;
        }
        if (MatchKeyword("DESC")) {
          item.ascending = false;
        } else {
          MatchKeyword("ASC");
        }
        select->order_by.push_back(std::move(item));
      } while (MatchOperator(","));
    }
    if (MatchKeyword("LIMIT")) {
      if (Current().type != TokenType::kInteger) {
        ErrorAtCurrent("expected integer after LIMIT");
        return nullptr;
      }
      select->limit = ParseNumberToken<uint64_t>();
      if (!select->limit) {
        return nullptr;
      }
    }
    return select;
  }

  std::unique_ptr<TableRef> ParseTablePrimary() {
    auto table = std::make_unique<TableRef>();
    if (MatchOperator("(")) {
      table->kind = TableRef::Kind::kSubquery;
      table->subquery = ParseSelect();
      if (!table->subquery || !ExpectOperator(")")) {
        return nullptr;
      }
      MatchKeyword("AS");
      if (!ExpectIdentifier(table->alias)) {
        return nullptr;  // Derived tables need an alias.
      }
      return table;
    }
    table->kind = TableRef::Kind::kTable;
    if (!ExpectIdentifier(table->name)) {
      return nullptr;
    }
    if (MatchKeyword("AS")) {
      if (!ExpectIdentifier(table->alias)) {
        return nullptr;
      }
    } else if (Current().type == TokenType::kIdentifier) {
      table->alias = Current().value;
      Advance();
    }
    return table;
  }

  std::unique_ptr<TableRef> ParseTableRef() {
    auto left = ParseTablePrimary();
    if (!left) {
      return nullptr;
    }
    while (true) {
      auto mode = JoinMode::kInner;
      auto is_cross = false;
      if (MatchKeyword("CROSS")) {
        if (!ExpectKeyword("JOIN")) {
          return nullptr;
        }
        is_cross = true;
        mode = JoinMode::kCross;
      } else if (MatchKeyword("INNER")) {
        if (!ExpectKeyword("JOIN")) {
          return nullptr;
        }
      } else if (MatchKeyword("LEFT")) {
        MatchKeyword("OUTER");
        if (!ExpectKeyword("JOIN")) {
          return nullptr;
        }
        mode = JoinMode::kLeft;
      } else if (MatchKeyword("RIGHT")) {
        MatchKeyword("OUTER");
        if (!ExpectKeyword("JOIN")) {
          return nullptr;
        }
        mode = JoinMode::kRight;
      } else if (MatchKeyword("FULL")) {
        MatchKeyword("OUTER");
        if (!ExpectKeyword("JOIN")) {
          return nullptr;
        }
        mode = JoinMode::kFullOuter;
      } else if (!MatchKeyword("JOIN")) {
        return left;
      }

      auto join = std::make_unique<TableRef>();
      join->kind = TableRef::Kind::kJoin;
      join->join_mode = mode;
      join->left = std::move(left);
      join->right = ParseTablePrimary();
      if (!join->right) {
        return nullptr;
      }
      if (!is_cross) {
        if (!ExpectKeyword("ON")) {
          return nullptr;
        }
        join->join_condition = ParseExpression();
        if (!join->join_condition) {
          return nullptr;
        }
      }
      left = std::move(join);
    }
  }

  StatementPtr ParseInsert() {
    auto statement = std::make_unique<Statement>();
    statement->kind = StatementKind::kInsert;
    if (!ExpectKeyword("INTO") || !ExpectIdentifier(statement->table_name)) {
      return nullptr;
    }
    if (MatchOperator("(")) {
      do {
        std::string column;
        if (!ExpectIdentifier(column)) {
          return nullptr;
        }
        statement->column_names.push_back(std::move(column));
      } while (MatchOperator(","));
      if (!ExpectOperator(")")) {
        return nullptr;
      }
    }
    if (MatchKeyword("VALUES")) {
      do {
        if (!ExpectOperator("(")) {
          return nullptr;
        }
        auto row = std::vector<AstExprPtr>{};
        do {
          auto expression = ParseExpression();
          if (!expression) {
            return nullptr;
          }
          row.push_back(std::move(expression));
        } while (MatchOperator(","));
        if (!ExpectOperator(")")) {
          return nullptr;
        }
        statement->insert_values.push_back(std::move(row));
      } while (MatchOperator(","));
      return statement;
    }
    statement->insert_select = ParseSelect();
    return statement->insert_select ? std::move(statement) : nullptr;
  }

  StatementPtr ParseUpdate() {
    auto statement = std::make_unique<Statement>();
    statement->kind = StatementKind::kUpdate;
    if (!ExpectIdentifier(statement->table_name) || !ExpectKeyword("SET")) {
      return nullptr;
    }
    do {
      std::string column;
      if (!ExpectIdentifier(column) || !ExpectOperator("=")) {
        return nullptr;
      }
      auto expression = ParseExpression();
      if (!expression) {
        return nullptr;
      }
      statement->assignments.emplace_back(std::move(column), std::move(expression));
    } while (MatchOperator(","));
    if (MatchKeyword("WHERE")) {
      statement->where = ParseExpression();
      if (!statement->where) {
        return nullptr;
      }
    }
    return statement;
  }

  StatementPtr ParseDelete() {
    auto statement = std::make_unique<Statement>();
    statement->kind = StatementKind::kDelete;
    if (!ExpectKeyword("FROM") || !ExpectIdentifier(statement->table_name)) {
      return nullptr;
    }
    if (MatchKeyword("WHERE")) {
      statement->where = ParseExpression();
      if (!statement->where) {
        return nullptr;
      }
    }
    return statement;
  }

  bool ParseDataType(DataType& out) {
    if (Current().type != TokenType::kIdentifier && Current().type != TokenType::kKeyword) {
      ErrorAtCurrent("expected a type name");
      return false;
    }
    auto name = Current().value;
    for (auto& character : name) {
      character = static_cast<char>(std::tolower(static_cast<unsigned char>(character)));
    }
    Advance();
    if (name == "int" || name == "integer") {
      out = DataType::kInt;
    } else if (name == "bigint" || name == "long") {
      out = DataType::kLong;
    } else if (name == "float" || name == "real") {
      out = DataType::kFloat;
    } else if (name == "double" || name == "decimal" || name == "numeric") {
      out = DataType::kDouble;
    } else if (name == "varchar" || name == "char" || name == "text" || name == "string" || name == "date") {
      out = DataType::kString;
    } else {
      ErrorAtCurrent("unknown type name: " + name);
      return false;
    }
    // Optional length/precision arguments: CHAR(10), DECIMAL(15, 2).
    if (MatchOperator("(")) {
      while (!CheckOperator(")") && !AtEnd()) {
        Advance();
      }
      if (!ExpectOperator(")")) {
        return false;
      }
    }
    return true;
  }

  StatementPtr ParseCreateTable() {
    auto statement = std::make_unique<Statement>();
    statement->kind = StatementKind::kCreateTable;
    if (MatchKeyword("IF")) {
      if (!ExpectKeyword("NOT") || !ExpectKeyword("EXISTS")) {
        return nullptr;
      }
      statement->if_not_exists = true;
    }
    if (!ExpectIdentifier(statement->table_name) || !ExpectOperator("(")) {
      return nullptr;
    }
    do {
      auto definition = TableColumnDefinition{};
      if (!ExpectIdentifier(definition.name) || !ParseDataType(definition.data_type)) {
        return nullptr;
      }
      definition.nullable = true;
      if (MatchKeyword("NOT")) {
        if (!ExpectKeyword("NULL")) {
          return nullptr;
        }
        definition.nullable = false;
      } else {
        MatchKeyword("NULL");
      }
      statement->column_definitions.push_back(std::move(definition));
    } while (MatchOperator(","));
    if (!ExpectOperator(")")) {
      return nullptr;
    }
    return statement;
  }

  StatementPtr ParseCreateView() {
    auto statement = std::make_unique<Statement>();
    statement->kind = StatementKind::kCreateView;
    if (!ExpectIdentifier(statement->table_name)) {
      return nullptr;
    }
    if (MatchOperator("(")) {
      do {
        std::string column;
        if (!ExpectIdentifier(column)) {
          return nullptr;
        }
        statement->view_column_names.push_back(std::move(column));
      } while (MatchOperator(","));
      if (!ExpectOperator(")")) {
        return nullptr;
      }
    }
    if (!ExpectKeyword("AS")) {
      return nullptr;
    }
    statement->view_select = ParseSelect();
    return statement->view_select ? std::move(statement) : nullptr;
  }

  StatementPtr ParseDrop() {
    auto statement = std::make_unique<Statement>();
    if (MatchKeyword("TABLE")) {
      statement->kind = StatementKind::kDropTable;
    } else if (MatchKeyword("VIEW")) {
      statement->kind = StatementKind::kDropView;
    } else {
      ErrorAtCurrent("expected TABLE or VIEW after DROP");
      return nullptr;
    }
    if (MatchKeyword("IF")) {
      if (!ExpectKeyword("EXISTS")) {
        return nullptr;
      }
      statement->if_exists = true;
    }
    if (!ExpectIdentifier(statement->table_name)) {
      return nullptr;
    }
    return statement;
  }

  // --- Expressions (precedence climbing) ---------------------------------------

  AstExprPtr ParseExpression() {
    return ParseOr();
  }

  AstExprPtr MakeBinary(std::string op, AstExprPtr left, AstExprPtr right) {
    auto expression = std::make_unique<AstExpr>();
    expression->type = AstExprType::kBinaryOp;
    expression->op = std::move(op);
    expression->children.push_back(std::move(left));
    expression->children.push_back(std::move(right));
    return expression;
  }

  AstExprPtr ParseOr() {
    auto left = ParseAnd();
    while (left && MatchKeyword("OR")) {
      auto right = ParseAnd();
      if (!right) {
        return nullptr;
      }
      left = MakeBinary("OR", std::move(left), std::move(right));
    }
    return left;
  }

  AstExprPtr ParseAnd() {
    auto left = ParseNot();
    while (left && MatchKeyword("AND")) {
      auto right = ParseNot();
      if (!right) {
        return nullptr;
      }
      left = MakeBinary("AND", std::move(left), std::move(right));
    }
    return left;
  }

  AstExprPtr ParseNot() {
    if (MatchKeyword("NOT")) {
      auto operand = ParseNot();
      if (!operand) {
        return nullptr;
      }
      auto expression = std::make_unique<AstExpr>();
      expression->type = AstExprType::kUnaryNot;
      expression->children.push_back(std::move(operand));
      return expression;
    }
    return ParseComparison();
  }

  AstExprPtr ParseComparison() {
    auto left = ParseAdditive();
    if (!left) {
      return nullptr;
    }
    // Binary comparisons.
    for (const auto* op : {"=", "<>", "<=", ">=", "<", ">"}) {
      if (MatchOperator(op)) {
        auto right = ParseAdditive();
        if (!right) {
          return nullptr;
        }
        return MakeBinary(op, std::move(left), std::move(right));
      }
    }
    const auto negated = MatchKeyword("NOT");
    if (MatchKeyword("BETWEEN")) {
      auto lower = ParseAdditive();
      if (!lower || !ExpectKeyword("AND")) {
        return nullptr;
      }
      auto upper = ParseAdditive();
      if (!upper) {
        return nullptr;
      }
      auto expression = std::make_unique<AstExpr>();
      expression->type = AstExprType::kBetween;
      expression->negated = negated;
      expression->children.push_back(std::move(left));
      expression->children.push_back(std::move(lower));
      expression->children.push_back(std::move(upper));
      return expression;
    }
    if (MatchKeyword("LIKE")) {
      auto pattern = ParseAdditive();
      if (!pattern) {
        return nullptr;
      }
      auto expression = MakeBinary("LIKE", std::move(left), std::move(pattern));
      expression->negated = negated;
      return expression;
    }
    if (MatchKeyword("IN")) {
      if (!ExpectOperator("(")) {
        return nullptr;
      }
      auto expression = std::make_unique<AstExpr>();
      expression->negated = negated;
      if (CheckKeyword("SELECT")) {
        expression->type = AstExprType::kInSubquery;
        expression->subquery = ParseSelect();
        if (!expression->subquery) {
          return nullptr;
        }
      } else {
        expression->type = AstExprType::kInList;
        do {
          auto element = ParseExpression();
          if (!element) {
            return nullptr;
          }
          expression->children.push_back(std::move(element));
        } while (MatchOperator(","));
      }
      if (!ExpectOperator(")")) {
        return nullptr;
      }
      expression->children.insert(expression->children.begin(), std::move(left));
      return expression;
    }
    if (negated) {
      ErrorAtCurrent("expected BETWEEN, LIKE, or IN after NOT");
      return nullptr;
    }
    if (MatchKeyword("IS")) {
      const auto is_not = MatchKeyword("NOT");
      if (!ExpectKeyword("NULL")) {
        return nullptr;
      }
      auto expression = std::make_unique<AstExpr>();
      expression->type = AstExprType::kIsNull;
      expression->negated = is_not;
      expression->children.push_back(std::move(left));
      return expression;
    }
    return left;
  }

  AstExprPtr ParseAdditive() {
    auto left = ParseMultiplicative();
    while (left && (CheckOperator("+") || CheckOperator("-"))) {
      const auto op = Current().value;
      Advance();
      auto right = ParseMultiplicative();
      if (!right) {
        return nullptr;
      }
      left = MakeBinary(op, std::move(left), std::move(right));
    }
    return left;
  }

  AstExprPtr ParseMultiplicative() {
    auto left = ParseUnary();
    while (left && (CheckOperator("*") || CheckOperator("/") || CheckOperator("%"))) {
      const auto op = Current().value;
      Advance();
      auto right = ParseUnary();
      if (!right) {
        return nullptr;
      }
      left = MakeBinary(op, std::move(left), std::move(right));
    }
    return left;
  }

  AstExprPtr ParseUnary() {
    if (MatchOperator("-")) {
      auto operand = ParseUnary();
      if (!operand) {
        return nullptr;
      }
      auto expression = std::make_unique<AstExpr>();
      expression->type = AstExprType::kUnaryMinus;
      expression->children.push_back(std::move(operand));
      return expression;
    }
    MatchOperator("+");
    return ParsePrimary();
  }

  AstExprPtr MakeLiteral(AllTypeVariant value) {
    auto expression = std::make_unique<AstExpr>();
    expression->type = AstExprType::kLiteral;
    expression->literal = std::move(value);
    return expression;
  }

  AstExprPtr ParsePrimary() {
    // Literals.
    if (Current().type == TokenType::kString) {
      auto literal = MakeLiteral(AllTypeVariant{Current().value});
      Advance();
      return literal;
    }
    if (Current().type == TokenType::kInteger) {
      const auto number = ParseNumberToken<int64_t>();
      if (!number) {
        return nullptr;
      }
      if (*number >= std::numeric_limits<int32_t>::min() && *number <= std::numeric_limits<int32_t>::max()) {
        return MakeLiteral(AllTypeVariant{static_cast<int32_t>(*number)});
      }
      return MakeLiteral(AllTypeVariant{*number});
    }
    if (Current().type == TokenType::kFloat) {
      const auto number = ParseNumberToken<double>();
      return number ? MakeLiteral(AllTypeVariant{*number}) : nullptr;
    }
    if (MatchKeyword("NULL")) {
      return MakeLiteral(kNullVariant);
    }
    if (MatchKeyword("TRUE")) {
      return MakeLiteral(AllTypeVariant{int32_t{1}});
    }
    if (MatchKeyword("FALSE")) {
      return MakeLiteral(AllTypeVariant{int32_t{0}});
    }
    // Parameter placeholder: '?' assigns ordinals left to right; '$n' (the
    // PostgreSQL extended-protocol spelling) names its ordinal explicitly
    // (1-based on the wire, 0-based internally).
    if (MatchOperator("?")) {
      auto expression = std::make_unique<AstExpr>();
      expression->type = AstExprType::kParameter;
      expression->parameter_ordinal = next_parameter_ordinal_++;
      return expression;
    }
    if (Current().type == TokenType::kOperator && Current().value.size() > 1 && Current().value[0] == '$') {
      // The lexer accepts arbitrarily many digits, so the ordinal must be
      // parsed overflow-safely; out-of-range (including overflow) is a clean
      // parse error, never undefined behavior.
      auto ordinal = int{0};
      const auto* const first = Current().value.data() + 1;
      const auto* const last = Current().value.data() + Current().value.size();
      const auto [parse_end, parse_error] = std::from_chars(first, last, ordinal);
      if (parse_error != std::errc{} || parse_end != last || ordinal < 1 || ordinal > UINT16_MAX) {
        ErrorAtCurrent("parameter number out of range");
        return nullptr;
      }
      Advance();
      auto expression = std::make_unique<AstExpr>();
      expression->type = AstExprType::kParameter;
      expression->parameter_ordinal = ordinal - 1;
      // Keep '?' ordinals consistent when both spellings are mixed.
      next_parameter_ordinal_ = std::max(next_parameter_ordinal_, ordinal);
      return expression;
    }
    // Parenthesized expression or scalar subquery.
    if (MatchOperator("(")) {
      if (CheckKeyword("SELECT")) {
        auto expression = std::make_unique<AstExpr>();
        expression->type = AstExprType::kSubquery;
        expression->subquery = ParseSelect();
        if (!expression->subquery || !ExpectOperator(")")) {
          return nullptr;
        }
        return expression;
      }
      auto inner = ParseExpression();
      if (!inner || !ExpectOperator(")")) {
        return nullptr;
      }
      return inner;
    }
    if (MatchKeyword("EXISTS")) {
      if (!ExpectOperator("(")) {
        return nullptr;
      }
      auto expression = std::make_unique<AstExpr>();
      expression->type = AstExprType::kExists;
      expression->subquery = ParseSelect();
      if (!expression->subquery || !ExpectOperator(")")) {
        return nullptr;
      }
      return expression;
    }
    if (MatchKeyword("CASE")) {
      return ParseCase();
    }
    if (MatchKeyword("CAST")) {
      if (!ExpectOperator("(")) {
        return nullptr;
      }
      auto expression = std::make_unique<AstExpr>();
      expression->type = AstExprType::kCast;
      auto operand = ParseExpression();
      if (!operand || !ExpectKeyword("AS") || !ParseDataType(expression->cast_type) || !ExpectOperator(")")) {
        return nullptr;
      }
      expression->children.push_back(std::move(operand));
      return expression;
    }
    if (MatchKeyword("SUBSTRING")) {
      // SUBSTRING(expr FROM start FOR length) or SUBSTRING(expr, start, length).
      if (!ExpectOperator("(")) {
        return nullptr;
      }
      auto expression = std::make_unique<AstExpr>();
      expression->type = AstExprType::kFunctionCall;
      expression->function_name = "substring";
      auto value = ParseExpression();
      if (!value) {
        return nullptr;
      }
      expression->children.push_back(std::move(value));
      if (MatchKeyword("FROM")) {
        auto start = ParseExpression();
        if (!start || !ExpectKeyword("FOR")) {
          return nullptr;
        }
        auto length = ParseExpression();
        if (!length) {
          return nullptr;
        }
        expression->children.push_back(std::move(start));
        expression->children.push_back(std::move(length));
      } else {
        while (MatchOperator(",")) {
          auto argument = ParseExpression();
          if (!argument) {
            return nullptr;
          }
          expression->children.push_back(std::move(argument));
        }
      }
      if (!ExpectOperator(")")) {
        return nullptr;
      }
      return expression;
    }
    if (MatchKeyword("EXTRACT")) {
      // EXTRACT(YEAR FROM expr).
      if (!ExpectOperator("(")) {
        return nullptr;
      }
      auto expression = std::make_unique<AstExpr>();
      expression->type = AstExprType::kFunctionCall;
      if (MatchKeyword("YEAR")) {
        expression->function_name = "extract_year";
      } else if (MatchKeyword("MONTH")) {
        expression->function_name = "extract_month";
      } else if (MatchKeyword("DAY")) {
        expression->function_name = "extract_day";
      } else {
        ErrorAtCurrent("expected YEAR, MONTH, or DAY");
        return nullptr;
      }
      if (!ExpectKeyword("FROM")) {
        return nullptr;
      }
      auto operand = ParseExpression();
      if (!operand || !ExpectOperator(")")) {
        return nullptr;
      }
      expression->children.push_back(std::move(operand));
      return expression;
    }
    // Identifier: column ref or function call.
    if (Current().type == TokenType::kIdentifier) {
      auto name = Current().value;
      Advance();
      if (MatchOperator("(")) {
        auto expression = std::make_unique<AstExpr>();
        expression->type = AstExprType::kFunctionCall;
        expression->function_name = name;
        expression->distinct = MatchKeyword("DISTINCT");
        if (MatchOperator("*")) {
          auto star = std::make_unique<AstExpr>();
          star->type = AstExprType::kColumnRef;
          star->column_name = "*";
          expression->children.push_back(std::move(star));
        } else if (!CheckOperator(")")) {
          do {
            auto argument = ParseExpression();
            if (!argument) {
              return nullptr;
            }
            expression->children.push_back(std::move(argument));
          } while (MatchOperator(","));
        }
        if (!ExpectOperator(")")) {
          return nullptr;
        }
        return expression;
      }
      auto expression = std::make_unique<AstExpr>();
      expression->type = AstExprType::kColumnRef;
      if (MatchOperator(".")) {
        expression->table_name = name;
        if (CheckOperator("*")) {
          Advance();
          expression->column_name = "*";
          return expression;
        }
        if (!ExpectIdentifier(expression->column_name)) {
          return nullptr;
        }
      } else {
        expression->column_name = name;
      }
      return expression;
    }
    // Bare star in select list.
    if (CheckOperator("*")) {
      Advance();
      auto expression = std::make_unique<AstExpr>();
      expression->type = AstExprType::kColumnRef;
      expression->column_name = "*";
      return expression;
    }
    ErrorAtCurrent("expected an expression");
    return nullptr;
  }

  AstExprPtr ParseCase() {
    auto expression = std::make_unique<AstExpr>();
    expression->type = AstExprType::kCase;
    while (MatchKeyword("WHEN")) {
      auto condition = ParseExpression();
      if (!condition || !ExpectKeyword("THEN")) {
        return nullptr;
      }
      auto then_value = ParseExpression();
      if (!then_value) {
        return nullptr;
      }
      expression->children.push_back(std::move(condition));
      expression->children.push_back(std::move(then_value));
    }
    if (expression->children.empty()) {
      ErrorAtCurrent("CASE requires at least one WHEN");
      return nullptr;
    }
    if (MatchKeyword("ELSE")) {
      auto else_value = ParseExpression();
      if (!else_value) {
        return nullptr;
      }
      expression->children.push_back(std::move(else_value));
      expression->has_else = true;
    }
    if (!ExpectKeyword("END")) {
      return nullptr;
    }
    return expression;
  }

  std::vector<Token> tokens_;
  size_t position_{0};
  std::string error_;
  int next_parameter_ordinal_{0};
};

}  // namespace

Result<std::vector<StatementPtr>> ParseSql(const std::string& query) {
  auto tokens = std::vector<Token>{};
  auto error = std::string{};
  if (!Tokenize(query, tokens, error)) {
    return Result<std::vector<StatementPtr>>::Error(error);
  }
  return Parser{std::move(tokens)}.ParseStatements();
}

}  // namespace hyrise::sql
